"""Shared builders for randomized index/decoder tests."""

import base64

import numpy as np
from hypothesis import strategies as st

from higen import decoder as dec
from higen import docid as di
from higen.data import DatasetRow, Item, PageView, _context_to_raw, write_text
from higen.errors import ConfigError
from higen.representation import AtomicEmbeddings


def random_index_inputs(seed, n_items=None, n_cats=None, d=8, path_len=2):
    """Random fusion vectors, scores, and category paths for index tests;
    path_len "mixed" gives odd categories one path token and even ones two,
    whose first tokens no one-token path uses; "unequal" gives even categories
    three tokens, (10, category, 90), and odd ones two with a first token of
    their own, so that 90 sorts after every cluster token at position 2."""
    rng = np.random.default_rng(seed)
    if n_items is None:
        n_items = int(rng.integers(20, 501))
    if n_cats is None:
        n_cats = int(rng.integers(2, 11))
    cat_ids = [101 + c for c in range(n_cats)]
    centers = rng.normal(size=(n_cats, d)) * 3.0
    fusion, scores, paths = {}, {}, {}
    for i in range(n_items):
        c = int(rng.integers(n_cats))
        item = f"it{i:04d}"
        fusion[item] = centers[c] + rng.normal(size=d)
        scores[item] = float(rng.uniform())
        if path_len == 2 or (path_len == "mixed" and c % 2 == 0):
            paths[item] = (10 + c // 3, cat_ids[c])
        elif path_len == "unequal":
            paths[item] = (10, cat_ids[c], 90) if c % 2 == 0 else (11 + c, cat_ids[c])
        else:
            paths[item] = (cat_ids[c],)
    return fusion, scores, paths


def hierarchical_cluster(points, k: int, cs: int, depth_budget: int,
                         scores=None, ids=None, seed: int = 0) -> list[tuple[int, ...]]:
    """Per-point sub-docID token tuples from the recursion build_docids runs
    inside each first-level cluster; scores default to 0 and ids to 0..n-1."""
    points = np.asarray(points, dtype=float)
    if depth_budget < 1:
        raise ConfigError("depth_budget must be >= 1")
    n = len(points)
    if scores is None:
        scores = [0.0] * n
    if ids is None:
        ids = list(range(n))
    return di._hier(points, list(scores), list(ids), k, cs, depth_budget, seed)


def build_random_index(seed, k=4, cs=8, max_len=16, use_categories=True, **kw):
    """(docids, item scores, trie) over random_index_inputs."""
    fusion, scores, paths = random_index_inputs(seed, **kw)
    docids = di.build_docids(fusion, scores, paths, max_len=max_len, k=k, cs=cs, seed=seed,
                             use_categories=use_categories)
    return docids, scores, di.build_trie(docids, scores)


def trie_node_scores(trie) -> dict[tuple[int, ...], float]:
    """Token prefix -> score of every node the trie scores."""
    out, stack = {}, [((), trie.root)]
    while stack:
        prefix, node = stack.pop()
        if not np.isnan(trie.scores[node.id]):
            out[prefix] = trie.scores[node.id]
        stack.extend((prefix + (tok,), child) for tok, child in node.children.items())
    return out


def decoder_world(seed, n_items=30, n_cats=3, emb=4, d_model=6, hidden=(8,), path_len=1,
                  **cfg_kw):
    """Random docID index plus an untrained decoder model over it."""
    docids, scores, trie = build_random_index(seed, n_items=n_items, n_cats=n_cats,
                                              path_len=path_len)
    catalog = [Item(item_id, d_paths_of(docids[item_id]), (f"s{item_id}",), (0.5,), 0.5)
               for item_id in sorted(docids)]
    rows = [DatasetRow(f"u{i % 3}", f"q{item_id}", (), item_id, 1, 1, 600.0 * i)
            for i, item_id in enumerate(sorted(docids))]
    cfg = dec.DecoderConfig(emb=emb, d_model=d_model, hidden=hidden, seed=seed, **cfg_kw)
    vocab_rows = rows
    model = dec.DecoderModel(dec.Vocab.build(vocab_rows, catalog), dec.PositionVocab(trie),
                             cfg)
    return docids, scores, trie, catalog, rows, model


def d_paths_of(d):
    return tuple(d.tokens[:d.semantic_len]) or (0,)


def clustered_world(n_clusters=4, per_cluster=6, d=4, seed=0, spread=0.6, n_pvs=40):
    """Atomic table whose items carry latent cluster structure, plus PVs in
    which clicked items come from one cluster and unclicked from others."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, 3 * d)) * 2.0
    table, labels = {}, {}
    for c in range(n_clusters):
        for j in range(per_cluster):
            vec = centers[c] + spread * rng.normal(size=3 * d)
            item = f"c{c}j{j}"
            table[item] = AtomicEmbeddings(vec[2 * d:], vec[:d], vec[d:2 * d])
            labels[item] = c
    ids_by_cluster = {c: [i for i, l in labels.items() if l == c] for c in range(n_clusters)}
    pvs = []
    for k in range(n_pvs):
        c = k % n_clusters
        other = (c + 1 + k % (n_clusters - 1)) % n_clusters
        same = [ids_by_cluster[c][i % per_cluster] for i in (k, k + 1)]
        diff = [ids_by_cluster[other][k % per_cluster]]
        pvs.append(PageView(f"pv{k}", tuple((i, 1) for i in same) + tuple((i, 0) for i in diff)))
    return table, labels, pvs


def save_tsv(path, rows):
    """Rows in the tab-separated schema load_dataset reads; the package writes
    JSONL only."""
    write_text(path, ("\t".join([r.user_id, r.query, ",".join(_context_to_raw(r.context)),
                                 r.target_item_id, str(r.relevance), str(r.click),
                                 repr(r.timestamp)]) + "\n" for r in rows))


@st.composite
def bad_f8_texts(draw):
    """Text `data.f8_array` must refuse: the base64 of finite float64 values
    with a NaN or infinity among them, that base64 with a character outside
    the alphabet or padding put in, or whole base64 of a byte count that is
    not a multiple of 8."""
    values = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    max_size=5)), "<f8")
    kind = draw(st.sampled_from(["non-finite", "not base64", "length"]))
    if kind == "non-finite":
        # all exponent bits set: an infinity when the mantissa is 0, else a NaN
        bits = (draw(st.integers(0, 1)) << 63) | (0x7FF << 52) | draw(st.integers(0, 2**52 - 1))
        bad = np.array([bits], "<u8").view("<f8")
        raw = np.insert(values, draw(st.integers(0, len(values))), bad).tobytes()
        return base64.b64encode(raw).decode("ascii")
    if kind == "length":
        extra = draw(st.binary(min_size=1, max_size=7))
        return base64.b64encode(values.tobytes() + extra).decode("ascii")
    text = base64.b64encode(values.tobytes()).decode("ascii")
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(["*", "-", " ", "\n", "\u00e9", "="])) + text[at:]
