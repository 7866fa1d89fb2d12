"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import sys
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
from helpers import build_random_index, clustered_world, decoder_world
from oracles import class_distance_gap, finite_diff_gradcheck, hierarchical_weights

from higen import cli
from higen import data as dt
from higen import decoder as dec
from higen import docid as di
from higen import expansion as ex
from higen import fusion as fu
from higen import nn
from higen import representation as rep
from higen.config import PipelineConfig
from higen.data import DatasetRow, Item
from higen.evaluate import EvalReport
from higen.pipeline import run_ablation_study, run_pipeline


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {name}", file=sys.stderr, flush=True)
        raise
    print(f"[criterion {num:02d}] PASS {name}", file=sys.stderr, flush=True)


def test_c01_gradient_correctness():
    with criterion(1, "gradient correctness of the three losses (< 1e-4, < 30 s)"):
        started = time.perf_counter()

        # joint relevance/click loss through the full two-tower model
        items = [Item(f"it{i:02d}", (101 + i % 2,), (f"c{101 + i % 2}", f"w{i}"),
                      (0.1 * i, 1.0 - 0.05 * i), 0.1 + 0.1 * i) for i in range(4)]
        rows = [DatasetRow(f"u{i % 2}", f"c{101 + i % 2} w{i}", ((items[(i + 1) % 4].item_id,
                           "click"),), items[i].item_id, 1, i % 2, 60.0 * i) for i in range(4)]
        cfg = rep.TwoTowerConfig(d_k=3, d_u=2, d_e=4, d_atomic=3, user_hidden=(5,),
                                 head_hidden=(5,), query_len=2, context_len=1, sem_len=2,
                                 seed=0)
        model = rep.TwoTowerModel(rep.Vocab.build(rows, items), cfg)
        batch = rep.encode_rows(rows, {it.item_id: it for it in items}, model.vocab, cfg)

        def embed_loss_fn():
            y_r, y_c = model.forward(batch)
            return rep.embed_loss(y_r, y_c, batch.y_r, batch.y_c, cfg.w_c)

        err_embed = finite_diff_gradcheck(embed_loss_fn, model.params(), eps=1e-5)
        assert err_embed < 1e-4, f"embedding loss gradcheck {err_embed}"

        # triplet hinge through the fusion MLP
        rng = np.random.default_rng(4)
        fmodel = fu.FusionModel(4, fu.MetricConfig(d_out=6, hidden=(8,), seed=5))
        xa, xp, xn = (rng.normal(size=(8, 12)) for _ in range(3))

        def triplet_loss_fn():
            return fu.triplet_loss_batch(nn.dense(nn.Tensor(xa), fmodel.net),
                                         nn.dense(nn.Tensor(xp), fmodel.net),
                                         nn.dense(nn.Tensor(xn), fmodel.net), 0.3)

        err_triplet = finite_diff_gradcheck(triplet_loss_fn, fmodel.params(), eps=1e-5)
        assert err_triplet < 1e-4, f"triplet loss gradcheck {err_triplet}"

        # position-weighted cross-entropy through the decoder
        docids, _scores, trie, _catalog, drows, dmodel = decoder_world(
            1, n_items=8, n_cats=2, emb=2, d_model=3, hidden=(3,))
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        dbatch = dmodel.prepare_rows(drows[:2], docids)

        def decoder_loss_fn():
            return dec.position_aware_loss(dbatch, dmodel, weights)[0]

        err_decoder = finite_diff_gradcheck(decoder_loss_fn, dmodel.params(), eps=1e-5)
        assert err_decoder < 1e-4, f"position-aware loss gradcheck {err_decoder}"

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


def test_c02_position_weight_law():
    with criterion(2, "decay-weight law: sum 1, strictly decreasing, positive"):
        for last in range(1, 17):
            w = hierarchical_weights(last)
            assert abs(w.sum() - 1.0) < 1e-12, f"sum off at L={last}"
            assert np.all(np.diff(w) < 0.0), f"not strictly decreasing at L={last}"
            assert np.all(w > 0.0), f"non-positive weight at L={last}"
        got = [dec.hierarchical_weight(t, 2) for t in range(3)]
        np.testing.assert_allclose(got, [0.665241, 0.244728, 0.090031], atol=1e-6)
        mpmath.mp.dps = 40
        denom = sum(mpmath.e ** i for i in range(3))
        oracle = [float(mpmath.e ** (2 - t) / denom) for t in range(3)]
        np.testing.assert_allclose(got, oracle, atol=1e-13)


def test_c03_docid_invariants_on_random_catalogs():
    with criterion(3, "docID invariants over 200 random catalogs (< 2 min)"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        cs = 8
        from helpers import random_index_inputs, trie_node_scores

        for trial in range(200):
            seed = int(rng.integers(1 << 30))
            n_items = int(rng.integers(20, 501))
            n_cats = int(rng.integers(2, 11))
            path_len = int(rng.integers(1, 3))
            fusion, scores, paths = random_index_inputs(seed, n_items=n_items,
                                                        n_cats=n_cats, path_len=path_len)
            docids = di.build_docids(fusion, scores, paths, max_len=16, k=4, cs=cs, seed=seed)
            trie = di.build_trie(docids, scores)
            node_scores = trie_node_scores(trie)

            texts = {d.text() for d in docids.values()}
            assert len(texts) == len(docids) == n_items, "docID uniqueness violated"

            for item, d in docids.items():
                assert d.tokens[:d.semantic_len] == tuple(paths[item]), \
                    "semantic prefix differs from the category path"

            def walk(node):
                if node.item_id is not None:
                    return
                kids = node.children.values()
                if all(k.item_id is not None for k in kids):
                    assert len(node.children) <= cs, \
                        f"ordinal node with {len(node.children)} > CS={cs} items"
                for child in kids:
                    walk(child)

            walk(trie.root)

            # brute-force E from the original input scores
            sums, counts = {}, {}
            for item, d in docids.items():
                for t in range(d.semantic_len, len(d.tokens)):
                    p = d.tokens[:t + 1]
                    sums[p] = sums.get(p, 0.0) + scores[item]
                    counts[p] = counts.get(p, 0) + 1
            assert set(node_scores) == set(sums)
            for p, e in node_scores.items():
                assert abs(e - sums[p] / counts[p]) < 1e-12, f"node score off at {p}"
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"catalog sweep took {elapsed:.1f}s"


def test_c04_beam_search_oracle_equivalence():
    with criterion(4, "beam order equals exhaustive enumeration on 100 instances (< 2 min)"):
        started = time.perf_counter()
        rng = np.random.default_rng(77)
        for trial in range(100):
            n_items = int(rng.integers(20, 201))
            docids, _scores, trie, _catalog, rows, model = decoder_world(
                int(rng.integers(1 << 30)), n_items=n_items,
                n_cats=int(rng.integers(2, 7)), emb=3, d_model=4, hidden=(4,))
            row = rows[int(rng.integers(len(rows)))]
            want = dec.brute_force_scores(model, trie, row)
            got = dec.constrained_beam_search(row, model, trie, beam_width=len(docids),
                                              k=len(docids))
            assert [(g[0].tokens, g[2]) for g in got] == \
                [(w[0], w[2]) for w in want], f"order mismatch on trial {trial}"
            assert [g[1] for g in got] == [w[1] for w in want], \
                f"log-prob mismatch on trial {trial}"
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"beam sweep took {elapsed:.1f}s"


def test_c05_cluster_expansion_nesting():
    with criterion(5, "cluster expansion nests as the prefix shortens (exact)"):
        rng = np.random.default_rng(11)
        for trial in range(50):
            docids, _ns, trie = build_random_index(
                int(rng.integers(1 << 30)), k=4, cs=8, max_len=16,
                n_items=int(rng.integers(30, 200)), n_cats=int(rng.integers(2, 8)))
            ids = sorted(docids)
            picks = rng.choice(len(ids), size=min(5, len(ids)), replace=False)
            decoded = [(docids[ids[i]], -float(j)) for j, i in enumerate(picks)]
            prev_set, prev_num = None, None
            for k in range(trie.max_depth, 0, -1):
                out = ex.cluster_expand(decoded, trie, k)
                got = set(out.item_ids())
                assert len(got) == out.recall_num
                if prev_set is not None:
                    assert got >= prev_set, f"expand({k}) lost items vs expand({k + 1})"
                    assert out.recall_num >= prev_num
                prev_set, prev_num = got, out.recall_num


def test_c06_metric_learning_efficacy():
    with criterion(6, "triplet training shrinks the class-distance gap >= 30% (< 1 min)"):
        started = time.perf_counter()
        table, labels, pvs = clustered_world(n_clusters=4, per_cluster=8, d=4, seed=3,
                                             spread=1.0, n_pvs=60)
        cfg = fu.MetricConfig(d_out=8, hidden=(16,), lr=5e-3, epochs=15, margin=0.5, seed=2)
        before = class_distance_gap(
            fu.fuse_table(table, fu.FusionModel(4, cfg)), labels)
        model = fu.train_metric(table, pvs, cfg)
        after = class_distance_gap(fu.fuse_table(table, model), labels)
        reduction = before - after
        assert reduction >= 0.30 * abs(before), \
            f"gap went {before:.4f} -> {after:.4f}, reduction {reduction:.4f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"metric training took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def e2e_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    assert cli.main(["gen-synthetic", "--out", str(out), "--items", "500",
                     "--categories", "50", "--train-queries", "200",
                     "--test-queries", "100", "--users", "20", "--seed", "0"]) == 0
    return out


def test_c07_end_to_end_synthetic_retrieval(e2e_dir):
    with criterion(7, "run-all on 500 items reaches recall@10 >= 0.90, recall@1 >= 0.60 "
                      "(< 5 min)"):
        started = time.perf_counter()
        assert cli.main(["run-all", "--config", str(e2e_dir / "config.json")]) == 0
        elapsed = time.perf_counter() - started
        report = EvalReport.load(e2e_dir / "work" / "report.json")
        assert report.recall[10] >= 0.90, f"recall@10 = {report.recall[10]}"
        assert report.recall[1] >= 0.60, f"recall@1 = {report.recall[1]}"
        assert elapsed < 300.0, f"run-all took {elapsed:.1f}s"


def test_c08_ablation_non_inferiority(tmp_path_factory):
    with criterion(8, "full configuration within 0.02 of each ablation over 5 seeds"):
        out = tmp_path_factory.mktemp("ablation")
        assert cli.main(["gen-synthetic", "--out", str(out), "--items", "150",
                         "--categories", "15", "--train-queries", "80",
                         "--test-queries", "20", "--users", "10", "--seed", "1"]) == 0
        cfg = PipelineConfig.from_file(out / "config.json")
        cfg.epochs_decoder = 80
        result = run_ablation_study(cfg, seeds=[0, 1, 2, 3, 4], k=10)
        with open(out / "ablation.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
        means = result["mean"]
        for name in ("no_position_aware_loss", "no_category_clustering"):
            assert means["full"] >= means[name] - 0.02, \
                f"full {means['full']:.4f} vs {name} {means[name]:.4f}"


def test_c09_zero_shot_split_correctness():
    with criterion(9, "zero-shot split removes exactly the 65% overlap; idempotent"):
        train = [DatasetRow("u", f"query {i}", (), f"it{i}", 1, 1, float(i)) for i in range(200)]
        test = train[:130] + [DatasetRow("u", f"fresh {i}", (), f"it{i}", 1, 1, 0.0)
                              for i in range(70)]
        retained, removed = dt.zero_shot_split(train, test)
        assert removed == 0.65
        again, removed_again = dt.zero_shot_split(train, retained)
        assert again == retained and removed_again == 0.0


def test_c10_run_all_determinism(tmp_path_factory):
    with criterion(10, "two fresh run-alls with one seed give bit-identical metrics"):
        out = tmp_path_factory.mktemp("determinism")
        assert cli.main(["gen-synthetic", "--out", str(out), "--items", "120",
                         "--categories", "12", "--train-queries", "60",
                         "--test-queries", "30", "--users", "8", "--seed", "5"]) == 0
        cfg = PipelineConfig.from_file(out / "config.json")
        reports = []
        for run in ("a", "b"):
            sub = PipelineConfig.from_dict(cfg.echo() | {"workdir": str(out / f"work-{run}")})
            reports.append(run_pipeline(sub).metrics())
        assert reports[0] == reports[1]
