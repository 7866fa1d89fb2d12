"""Catalog and interaction-log handling (row schemas, page-view grouping,
zero-shot splitting, the synthetic corpus generator) and all file I/O: every
write, the CLI's `--output` included, goes through `write_text`, every JSON
document through `read_json` and every JSONL table but the interaction logs
(`load_dataset`) `read_jsonl`; an ndarray is written as `f8_text`, base64 of
its float64 bytes. Logs are JSONL or TSV. A page view is one `page_view_key`."""

from __future__ import annotations

import base64
import json
import logging
import os
import sys
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

import numpy as np

from .errors import CheckpointError, DataError, HigenError, NumericError

log = logging.getLogger(__name__)

PV_BUCKET_SECONDS = 600.0
NEGATIVES_PER_QUERY = 2         # synthetic rows per click: irrelevant, other categories
SAME_CATEGORY_NEGATIVES = 1     # synthetic rows per click: relevant, unclicked, same category
CATEGORY_GROUP = 5              # synthetic categories per oracle similarity group


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


def finite_number(value) -> float:
    """value as a float if it is an int or float, not a bool, of finite size;
    TypeError or ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _field(rec: dict, key: str, parse, of_list: bool = False):
    """parse(rec[key]), or with `of_list` the tuple of parse(v) for each v of the JSON
    list rec[key]; a value parse refuses raises its TypeError or ValueError naming key."""
    value = rec[key]
    try:
        if not of_list:
            return parse(value)
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(map(parse, value))
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"'{key}': {exc}") from None


def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an int, got {value!r}")
    return value


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _parse_context(raw) -> tuple[tuple[str, str], ...]:
    if not isinstance(raw, list) or not all(isinstance(entry, str) for entry in raw):
        raise DataError("context must be a list of strings")
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


def _row_from_record(rec: dict) -> DatasetRow:
    relevance, click = (_field(rec, key, _int) for key in ("relevance", "click"))
    if relevance not in (0, 1) or click not in (0, 1):
        raise DataError(f"non-binary label in row: relevance={relevance!r} click={click!r}")
    user_id, query, target = (_field(rec, key, _str) for key in
                              ("user_id", "query", "target_item_id"))
    return DatasetRow(user_id, query, _parse_context(rec.get("context", [])), target,
                      relevance, click, finite_number(rec.get("timestamp", 0.0)))


def _row_from_tsv(line: str) -> DatasetRow:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 7:
        raise DataError(f"expected 7 tab-separated fields, got {len(parts)}")
    user_id, query, ctx, target, relevance, click, ts = parts
    context = [c for c in ctx.split(",") if c]
    return _row_from_record({"user_id": user_id, "query": query, "context": context,
                             "target_item_id": target, "relevance": int(relevance),
                             "click": int(click), "timestamp": float(ts)})


def load_dataset(path, schema: str = "jsonl", catalog=None) -> LoadResult:
    """Parse rows, count malformed lines, bytes that are not UTF-8 included
    (>1% aborts), group page views."""
    if schema not in ("jsonl", "tsv"):
        raise DataError(f"unknown dataset schema '{schema}'")
    rows: list[DatasetRow] = []
    malformed = 0
    total = 0
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    with fh:
        for raw in fh:
            if not raw.strip():
                continue
            total += 1
            try:
                line = raw.decode("utf-8")
                if schema == "jsonl":
                    rows.append(_row_from_record(json.loads(line)))
                else:
                    rows.append(_row_from_tsv(line))
            except (DataError, KeyError, ValueError, TypeError, OverflowError):
                malformed += 1
    if total and malformed / total > 0.01:
        raise DataError(f"{malformed}/{total} malformed rows exceeds the 1% budget in {path}")
    if malformed:
        log.warning("%s: %d malformed rows skipped", path, malformed)
    if catalog is not None:
        known = {it.item_id for it in catalog}
        unknown = sorted({r.target_item_id for r in rows} - known)
        if unknown:
            raise DataError(f"{path}: rows reference items missing from the catalog: "
                            f"{unknown[:10]}")
    return LoadResult(rows, group_page_views(rows), malformed)


def save_dataset(path, rows) -> None:
    write_jsonl(path, ({"user_id": r.user_id, "query": r.query,
                        "context": _context_to_raw(r.context),
                        "target_item_id": r.target_item_id, "relevance": r.relevance,
                        "click": r.click, "timestamp": r.timestamp} for r in rows))


def page_view_key(row: DatasetRow) -> tuple[str, str, int]:
    """(user, query, PV_BUCKET_SECONDS bucket of the timestamp)."""
    return row.user_id, row.query, int(row.timestamp // PV_BUCKET_SECONDS)


def group_page_views(rows) -> list[PageView]:
    """One PV per page_view_key, entries in row order."""
    groups: dict[tuple, list[tuple[str, int]]] = {}
    for r in rows:
        groups.setdefault(page_view_key(r), []).append((r.target_item_id, r.click))
    return [PageView(f"{u}|{q}|{b}", tuple(entries)) for (u, q, b), entries in groups.items()]


def load_catalog(path) -> list[Item]:
    """The catalog's items, each field checked, not coerced: a string id, a list of
    int categories, a list of string tokens, a list of finite efficiency numbers and
    a finite score; anything else raises DataError naming the file and line."""
    items = list(read_jsonl(path, lambda rec: Item(
        _field(rec, "item_id", _str), _field(rec, "category_path", _int, of_list=True),
        _field(rec, "semantic_tokens", _str, of_list=True),
        _field(rec, "efficiency", finite_number, of_list=True),
        _field(rec, "efficient_score", finite_number))))
    ids = [it.item_id for it in items]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate item ids in catalog")
    for it in items:
        if len(it.efficiency) != len(items[0].efficiency):
            raise DataError(f"{path}: item '{it.item_id}' has {len(it.efficiency)} efficiency "
                            f"values, item '{items[0].item_id}' {len(items[0].efficiency)}")
    return items


def save_catalog(path, items) -> None:
    write_jsonl(path, ({"item_id": it.item_id, "category_path": list(it.category_path),
                        "semantic_tokens": list(it.semantic_tokens),
                        "efficiency": list(it.efficiency),
                        "efficient_score": it.efficient_score} for it in items))


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


def generate_synthetic(n_items: int = 500, n_categories: int = 50,
                       n_train_queries: int = 200, n_test_queries: int = 100,
                       n_users: int = 20, seed: int = 0,
                       overlap_fraction: float = 0.5) -> SyntheticCorpus:
    """Deterministic toy corpus: every query names its target item through
    shared category/word tokens, so ground truth is exactly recoverable."""
    if n_categories < 1 or n_items < n_categories:
        raise DataError("need at least one item per category")
    rng = np.random.default_rng(seed)
    cat_ids = [101 + c for c in range(n_categories)]

    # drawn item by item and rounded in one call: the same ufunc, so the same bits
    draws = np.round([(rng.uniform(0.02, 0.98), 0.05 * rng.normal(), rng.uniform())
                      for _ in range(n_items)], 6).tolist()
    items = [Item(f"it{i:04d}", (cid,), (f"c{cid}", f"w{i}"), (score + noise, extra), score)
             for i, ((score, noise, extra), cid) in enumerate(zip(draws, cycle(cat_ids)))]
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
            picks = rng.choice(len(cat_pool), size=min(SAME_CATEGORY_NEGATIVES, len(cat_pool)),
                               replace=False) if cat_pool else []
            for p in picks:
                rows.append(DatasetRow(user, qtext, ctx, items[cat_pool[int(p)]].item_id,
                                       1, 0, ts))
            for _ in range(NEGATIVES_PER_QUERY):
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
            if a // CATEGORY_GROUP == b // CATEGORY_GROUP:
                oracle_pairs.append((cat_ids[a], cat_ids[b], 0.6))
    return SyntheticCorpus(items, train_rows, test_rows, oracle_pairs)


def write_oracle_jsonl(path, pairs) -> None:
    write_jsonl(path, ({"a": a, "b": b, "similarity": sim} for a, b, sim in pairs))


def read_oracle_jsonl(path) -> list[tuple[int, int, float]]:
    return list(read_jsonl(path, lambda rec: (_field(rec, "a", _int), _field(rec, "b", _int),
                                              _field(rec, "similarity", finite_number))))


# ---------------------------------------------------------------------------
# file I/O


def write_text(path, chunks) -> None:
    """Write chunks to path through a temporary file and os.replace, or stream
    them to stdout ("-"); a fault leaves the old file and no temporary one.
    The JSON encoder's ValueError, its refusal of a non-finite number, becomes
    NumericError naming path; the package's own errors pass through."""
    if str(path) == "-":
        sys.stdout.writelines(chunks)
        return
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            try:
                fh.writelines(chunks)
            except HigenError:
                raise
            except ValueError as exc:
                raise NumericError(f"{path}: {exc}") from None
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def f8_text(values) -> str:
    """base64 of a finite float64 ndarray's little-endian, C-order bytes, the
    JSON writers' form of an ndarray; a non-finite value raises ValueError."""
    if not isinstance(values, np.ndarray):
        raise TypeError(f"Object of type {type(values).__name__} is not JSON serializable")
    if not np.isfinite(values).all():
        raise ValueError("non-finite number in a float64 array")
    return base64.b64encode(values.astype("<f8", copy=False).tobytes()).decode("ascii")


def f8_array(text) -> np.ndarray:
    """The flat float64 array f8_text wrote, bit for bit; bad base64 (binascii.Error),
    a byte count not a multiple of 8 or a non-finite value raise ValueError."""
    values = np.frombuffer(base64.b64decode(text, validate=True), "<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("non-finite number in a float64 array")
    return values


def write_json(path, doc, indent: int | None = None) -> None:
    encode = json.JSONEncoder(allow_nan=False, indent=indent, default=f8_text).encode
    write_text(path, map(encode, (doc,)))   # one-shot: the C encoder, in write_text's guard


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# one coder each: json.dumps and json.loads build a new one per call when given options
_ENCODE = json.JSONEncoder(allow_nan=False, default=f8_text).encode
_DECODE = json.JSONDecoder(parse_constant=_reject_constant).decode


def write_jsonl(path, records) -> None:
    write_text(path, (_ENCODE(rec) + "\n" for rec in records))


def read_json(path, fields: dict[str, type] | None = None, version: int | None = None,
              decode=None):
    """decode(doc), or doc, for the JSON object doc in path; a bad file or JSON,
    NaN, a "version" not an int up to `version`, a field of `fields` missing or
    of another type, or a bad field met by decode raise CheckpointError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = _DECODE(fh.read())
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: bad JSON: {exc.msg} at offset {exc.pos}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    found = doc.get("version")
    if version is not None and not (isinstance(found, int) and found <= version):
        raise CheckpointError(f"{path}: version {found!r} is missing or newer than {version}")
    for name, kind in (fields or {}).items():
        if not isinstance(doc.get(name), kind):
            raise CheckpointError(f"{path}: field '{name}' is missing or not a {kind.__name__}")
    try:
        return doc if decode is None else decode(doc)
    except CheckpointError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: {type(exc).__name__}: {exc}") from None


def read_jsonl(path, parse):
    """parse(record) for each non-blank line of a JSONL file or of stdin ("-"),
    lazily; a bad file, UTF-8 or JSON, NaN, a line that is not an object, or a
    bad field met by parse raise DataError naming the file and line."""
    try:
        fh = sys.stdin if str(path) == "-" else open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = _DECODE(line)
                if not isinstance(rec, dict):
                    raise TypeError(f"expected a JSON object, got {type(rec).__name__}")
                value = parse(rec)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path} line {lineno}: {type(exc).__name__}: {exc}") from None
            yield value
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    finally:
        if fh is not sys.stdin:
            fh.close()
