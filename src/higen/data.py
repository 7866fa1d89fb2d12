"""Catalog and interaction-log handling: row schemas, page-view grouping,
zero-shot splitting, and the bundled synthetic corpus generator."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

PV_BUCKET_SECONDS = 600.0


@dataclass(frozen=True)
class Item:
    """One catalog record."""

    item_id: str
    category_path: tuple[int, ...]
    semantic_tokens: tuple[str, ...]
    efficiency: tuple[float, ...]
    efficient_score: float


@dataclass(frozen=True)
class DatasetRow:
    """One training/evaluation sample. Context entries are (item_id, tag)."""

    user_id: str
    query: str
    context: tuple[tuple[str, str], ...]
    target_item_id: str
    relevance: int
    click: int
    timestamp: float


@dataclass(frozen=True)
class PageView:
    """One exposure page: the items shown together with their click labels."""

    pv_id: str
    entries: tuple[tuple[str, int], ...]


@dataclass
class LoadResult:
    rows: list[DatasetRow]
    page_views: list[PageView]
    malformed: int


def _parse_context(raw) -> tuple[tuple[str, str], ...]:
    out = []
    for entry in raw:
        if ":" in entry:
            item_id, tag = entry.split(":", 1)
        else:
            item_id, tag = entry, "click"
        out.append((item_id, tag))
    return tuple(out)


def _context_to_raw(context) -> list[str]:
    return [f"{i}:{t}" if t != "click" else i for i, t in context]


def record_error(path, lineno: int, exc: Exception) -> DataError:
    """DataError naming the file and line of a record that is not valid JSON
    or has a missing or ill-typed field."""
    return DataError(f"{path} line {lineno}: {type(exc).__name__}: {exc}")


def _row_from_record(rec: dict) -> DatasetRow:
    relevance = rec["relevance"]
    click = rec["click"]
    if relevance not in (0, 1) or click not in (0, 1):
        raise DataError(f"non-binary label in row: relevance={relevance!r} click={click!r}")
    return DatasetRow(str(rec["user_id"]), str(rec["query"]),
                      _parse_context(rec.get("context", [])), str(rec["target_item_id"]),
                      int(relevance), int(click), float(rec.get("timestamp", 0.0)))


def _row_from_tsv(line: str) -> DatasetRow:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 7:
        raise DataError(f"expected 7 tab-separated fields, got {len(parts)}")
    user_id, query, ctx, target, relevance, click, ts = parts
    context = [c for c in ctx.split(",") if c]
    return _row_from_record({"user_id": user_id, "query": query, "context": context,
                             "target_item_id": target, "relevance": int(relevance),
                             "click": int(click), "timestamp": float(ts)})


def load_dataset(path, schema: str = "jsonl", catalog=None,
                 pv_bucket_seconds: float = PV_BUCKET_SECONDS) -> LoadResult:
    """Parse rows, count malformed lines (>1% aborts), group page views."""
    if schema not in ("jsonl", "tsv"):
        raise DataError(f"unknown dataset schema '{schema}'")
    rows: list[DatasetRow] = []
    malformed = 0
    total = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    with fh:
        for line in fh:
            if not line.strip():
                continue
            total += 1
            try:
                if schema == "jsonl":
                    rows.append(_row_from_record(json.loads(line)))
                else:
                    rows.append(_row_from_tsv(line))
            except (DataError, KeyError, ValueError, TypeError):
                malformed += 1
    if total and malformed / total > 0.01:
        raise DataError(f"{malformed}/{total} malformed rows exceeds the 1% budget in {path}")
    if malformed:
        log.warning("%s: %d malformed rows skipped", path, malformed)
    if catalog is not None:
        known = {it.item_id for it in catalog}
        unknown = sorted({r.target_item_id for r in rows} - known)
        if unknown:
            raise DataError(f"rows reference items missing from the catalog: {unknown[:10]}")
    return LoadResult(rows, group_page_views(rows, pv_bucket_seconds), malformed)


def save_dataset(path, rows, schema: str = "jsonl") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            if schema == "jsonl":
                fh.write(json.dumps({"user_id": r.user_id, "query": r.query,
                                     "context": _context_to_raw(r.context),
                                     "target_item_id": r.target_item_id,
                                     "relevance": r.relevance, "click": r.click,
                                     "timestamp": r.timestamp}) + "\n")
            else:
                ctx = ",".join(_context_to_raw(r.context))
                fh.write("\t".join([r.user_id, r.query, ctx, r.target_item_id,
                                    str(r.relevance), str(r.click), repr(r.timestamp)]) + "\n")


def group_page_views(rows, bucket_seconds: float = PV_BUCKET_SECONDS) -> list[PageView]:
    """One PV per (user, query, timestamp bucket), entries in row order."""
    groups: dict[tuple, list[tuple[str, int]]] = {}
    for r in rows:
        key = (r.user_id, r.query, int(r.timestamp // bucket_seconds))
        groups.setdefault(key, []).append((r.target_item_id, r.click))
    return [PageView(f"{u}|{q}|{b}", tuple(entries)) for (u, q, b), entries in groups.items()]


def load_catalog(path) -> list[Item]:
    items = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read catalog {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                items.append(Item(str(rec["item_id"]),
                                  tuple(int(c) for c in rec["category_path"]),
                                  tuple(str(t) for t in rec["semantic_tokens"]),
                                  tuple(float(x) for x in rec["efficiency"]),
                                  float(rec["efficient_score"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise record_error(path, lineno, exc) from None
    ids = [it.item_id for it in items]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate item ids in catalog")
    return items


def save_catalog(path, items) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for it in items:
            fh.write(json.dumps({"item_id": it.item_id, "category_path": list(it.category_path),
                                 "semantic_tokens": list(it.semantic_tokens),
                                 "efficiency": list(it.efficiency),
                                 "efficient_score": it.efficient_score}) + "\n")


def load_category_tree(path) -> dict[int, tuple[int, ...]]:
    """JSONL {category_id, parent_id, name} -> full root-to-leaf path per id."""
    parents: dict[int, int | None] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            parent = rec.get("parent_id")
            parents[int(rec["category_id"])] = None if parent is None else int(parent)
    paths: dict[int, tuple[int, ...]] = {}
    for cid in parents:
        path_ids = [cid]
        cur = parents[cid]
        while cur is not None:
            path_ids.append(cur)
            if cur not in parents:
                raise DataError(f"category {path_ids[-2]} references unknown parent {cur}")
            cur = parents[cur]
            if len(path_ids) > 64:
                raise DataError("category tree contains a cycle")
        paths[cid] = tuple(reversed(path_ids))
    return paths


def save_category_tree(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def url_to_category(url: str, parts: int = 2) -> str:
    """Derive a category key from a URL host: its first `parts` dot-separated
    labels (configurable because log formats differ)."""
    host = url.split("//")[-1].split("/")[0]
    return ".".join(host.split(".")[:parts])


def zero_shot_split(train_rows, test_rows):
    """Drop test rows whose (query, target) pair occurs in training; returns
    (retained rows, removed fraction)."""
    if not train_rows or not test_rows:
        raise DataError("zero_shot_split requires non-empty train and test rows")
    seen = {(r.query, r.target_item_id) for r in train_rows}
    retained = [r for r in test_rows if (r.query, r.target_item_id) not in seen]
    return retained, 1.0 - len(retained) / len(test_rows)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SyntheticCorpus:
    catalog: list[Item]
    train_rows: list[DatasetRow]
    test_rows: list[DatasetRow]
    oracle_pairs: list[tuple[int, int, float]]
    category_tree: list[dict]


def generate_synthetic(n_items: int = 500, n_categories: int = 50,
                       n_train_queries: int = 200, n_test_queries: int = 100,
                       n_users: int = 20, seed: int = 0, negatives_per_query: int = 2,
                       same_category_negatives: int = 1, overlap_fraction: float = 0.5,
                       category_group: int = 5) -> SyntheticCorpus:
    """Deterministic toy corpus: every query names its target item through
    shared category/word tokens, so ground truth is exactly recoverable."""
    if n_categories < 1 or n_items < n_categories:
        raise DataError("need at least one item per category")
    rng = np.random.default_rng(seed)
    cat_ids = [101 + c for c in range(n_categories)]
    tree = [{"category_id": cid, "parent_id": None, "name": f"cat{cid}"} for cid in cat_ids]

    items: list[Item] = []
    for i in range(n_items):
        cid = cat_ids[i % n_categories]
        score = float(np.round(rng.uniform(0.02, 0.98), 6))
        eff = (score + float(np.round(0.05 * rng.normal(), 6)), float(np.round(rng.uniform(), 6)))
        items.append(Item(f"it{i:04d}", (cid,), (f"c{cid}", f"w{i}"), eff, score))
    by_cat: dict[int, list[int]] = {}
    for i, it in enumerate(items):
        by_cat.setdefault(it.category_path[-1], []).append(i)

    def make_rows(query_specs, ts_start: float):
        rows = []
        history: dict[str, list[str]] = {}
        ts = ts_start
        for user, qtext, target_idx in query_specs:
            target = items[target_idx]
            ctx = tuple((cid, "click") for cid in history.get(user, [])[-4:])
            rows.append(DatasetRow(user, qtext, ctx, target.item_id, 1, 1, ts))
            cat_pool = [j for j in by_cat[target.category_path[-1]] if j != target_idx]
            picks = rng.choice(len(cat_pool), size=min(same_category_negatives, len(cat_pool)),
                               replace=False) if cat_pool else []
            for p in picks:
                rows.append(DatasetRow(user, qtext, ctx, items[cat_pool[int(p)]].item_id,
                                       1, 0, ts))
            for _ in range(negatives_per_query):
                j = int(rng.integers(n_items))
                while items[j].category_path == target.category_path:
                    j = int(rng.integers(n_items))
                rows.append(DatasetRow(user, qtext, ctx, items[j].item_id, 0, 0, ts))
            history.setdefault(user, []).append(target.item_id)
            ts += 997.0
        return rows

    targets = rng.permutation(n_items)[:n_train_queries] if n_train_queries <= n_items \
        else rng.integers(n_items, size=n_train_queries)
    train_specs = []
    for qi, t in enumerate(targets):
        it = items[int(t)]
        qtext = f"c{it.category_path[-1]} w{int(t)} q{qi % 5}"
        train_specs.append((f"u{qi % n_users}", qtext, int(t)))
    train_rows = make_rows(train_specs, ts_start=0.0)

    test_specs = []
    n_overlap = int(round(overlap_fraction * n_test_queries))
    for qi in range(n_test_queries):
        if qi < n_overlap:
            user, qtext, t = train_specs[qi % len(train_specs)]
        else:
            t = int(targets[qi % len(targets)])
            it = items[t]
            qtext = f"c{it.category_path[-1]} w{t} zz{qi % 7}"
            user = f"u{(qi + 3) % n_users}"
        test_specs.append((user, qtext, t))
    test_rows = make_rows(test_specs, ts_start=1e9)

    oracle_pairs = []
    for a in range(n_categories):
        for b in range(a + 1, n_categories):
            if a // category_group == b // category_group:
                oracle_pairs.append((cat_ids[a], cat_ids[b], 0.6))
    return SyntheticCorpus(items, train_rows, test_rows, oracle_pairs, tree)


def write_oracle_jsonl(path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, sim in pairs:
            fh.write(json.dumps({"a": a, "b": b, "similarity": sim}) + "\n")


def read_oracle_jsonl(path) -> list[tuple[int, int, float]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.append((int(rec["a"]), int(rec["b"]), float(rec["similarity"])))
    return out
