"""Stage orchestration: embed -> metric -> docids -> decoder -> eval, each
writing a content-hashed artifact so unchanged stages are skipped on re-run."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from pathlib import Path

from . import data as dt
from . import decoder as dec
from . import docid as di
from . import expansion as ex
from . import fusion as fu
from . import representation as rep
from .config import PipelineConfig, variant_parse
from .errors import ConfigError, DataError
from .evaluate import EvalReport, recall_curve

log = logging.getLogger(__name__)

STAGE_ORDER = ("embed", "metric", "docids", "decoder", "eval")


def _file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _payload_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _cfg_subset(config: PipelineConfig, names) -> dict:
    echo = config.echo()
    return {n: echo[n] for n in names}


class _Stages:
    """Skip-if-unchanged bookkeeping around the artifact directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.timings: dict[str, float] = {}
        self.skipped: list[str] = []

    def path(self, name: str) -> Path:
        return self.workdir / name

    def up_to_date(self, stage: str, payload: dict, artifacts) -> bool:
        digest = _payload_hash(payload)
        hash_file = self.workdir / f"{stage}.hash"
        if hash_file.exists() and hash_file.read_text() == digest and \
                all(self.path(a).exists() for a in artifacts):
            self.skipped.append(stage)
            self.timings[stage] = 0.0
            log.info("stage %s: unchanged, skipping", stage)
            return True
        return False

    def mark(self, stage: str, payload: dict, started: float) -> None:
        (self.workdir / f"{stage}.hash").write_text(_payload_hash(payload))
        self.timings[stage] = time.perf_counter() - started
        log.info("stage %s: %.2fs", stage, self.timings[stage])


def run_pipeline(config: PipelineConfig) -> EvalReport:
    config.validate()
    if not config.catalog_path or not config.train_path:
        raise ConfigError("catalog_path and train_path are required")
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    st = _Stages(workdir)

    catalog = dt.load_catalog(config.catalog_path)
    if not catalog:
        raise DataError(f"empty catalog at {config.catalog_path}")
    train = dt.load_dataset(config.train_path, config.data_schema, catalog)
    if not train.rows:
        raise DataError(f"empty dataset at {config.train_path}")
    test = dt.load_dataset(config.test_path, config.data_schema, catalog) \
        if config.test_path else None
    oracle_pairs = dt.read_oracle_jsonl(config.oracle_path) if config.oracle_path else []
    input_hashes = {"catalog": _file_hash(config.catalog_path),
                    "train": _file_hash(config.train_path),
                    "test": _file_hash(config.test_path) if config.test_path else "",
                    "oracle": _file_hash(config.oracle_path) if config.oracle_path else ""}

    atomic_path = st.path("atomic.jsonl")
    embed_ckpt = st.path("embed.ckpt.json")
    fusion_path = st.path("fusion.jsonl")
    index_path = st.path("index.json")
    decoder_ckpt = st.path("decoder.ckpt.json")
    report_path = st.path("report.json")

    if "embed" in config.stages:
        payload = {"inputs": {k: input_hashes[k] for k in ("catalog", "train")},
                   "cfg": _cfg_subset(config, (
                       "seed", "lr_embed", "batch_embed", "epochs_embed", "embed_dim",
                       "d_k", "d_u", "embed_hidden", "tau", "w_c", "query_len",
                       "context_len", "sem_len"))}
        if not st.up_to_date("embed", payload, ("atomic.jsonl", "embed.ckpt.json")):
            started = time.perf_counter()
            cfg = rep.TwoTowerConfig(
                d_k=config.d_k, d_u=config.d_u, d_e=config.embed_dim,
                d_atomic=config.embed_dim, user_hidden=config.embed_hidden,
                head_hidden=config.embed_hidden, tau=config.tau, w_c=config.w_c,
                lr=config.lr_embed, batch_size=config.batch_embed,
                epochs=config.epochs_embed, seed=config.seed,
                query_len=config.query_len, context_len=config.context_len,
                sem_len=config.sem_len)
            model = rep.train_embedding(train.rows, catalog, cfg)
            rep.write_atomic_jsonl(atomic_path, rep.export_atomic_embeddings(model, catalog))
            model.save(embed_ckpt)
            st.mark("embed", payload, started)

    if "metric" in config.stages:
        payload = {"inputs": {"atomic": _file_hash(atomic_path), "train": input_hashes["train"]},
                   "cfg": _cfg_subset(config, (
                       "seed", "lr_metric", "batch_metric", "epochs_metric", "fusion_dim",
                       "fusion_hidden", "margin", "cap_per_pv", "normalize_fusion"))}
        if not st.up_to_date("metric", payload, ("fusion.jsonl",)):
            started = time.perf_counter()
            atomic = rep.read_atomic_jsonl(atomic_path)
            cfg = fu.MetricConfig(d_out=config.fusion_dim, hidden=config.fusion_hidden,
                                  margin=config.margin, lr=config.lr_metric,
                                  batch_size=config.batch_metric, epochs=config.epochs_metric,
                                  cap_per_pv=config.cap_per_pv, seed=config.seed,
                                  normalize=config.normalize_fusion)
            fmodel = fu.train_metric(atomic, train.page_views, cfg)
            fu.write_fusion_jsonl(fusion_path, fu.fuse_table(atomic, fmodel))
            fmodel.save(st.path("fusion.ckpt.json"))
            st.mark("metric", payload, started)

    if "docids" in config.stages:
        payload = {"inputs": {"fusion": _file_hash(fusion_path),
                              "catalog": input_hashes["catalog"]},
                   "cfg": _cfg_subset(config, (
                       "seed", "kmeans_k", "max_cluster", "docid_max_len",
                       "category_clustering"))}
        if not st.up_to_date("docids", payload, ("index.json",)):
            started = time.perf_counter()
            fusion_table = fu.read_fusion_jsonl(fusion_path)
            scores = {it.item_id: it.efficient_score for it in catalog}
            paths = {it.item_id: it.category_path for it in catalog}
            docids, node_scores = di.build_docids(
                fusion_table, scores, paths, max_len=config.docid_max_len,
                k=config.kmeans_k, cs=config.max_cluster, seed=config.seed,
                use_categories=config.category_clustering)
            di.serialize_index(docids, node_scores, index_path)
            st.mark("docids", payload, started)

    semantic_len = config.semantic_len if config.category_clustering else 0

    if "decoder" in config.stages:
        payload = {"inputs": {"index": _file_hash(index_path), "train": input_hashes["train"],
                              "oracle": input_hashes["oracle"]},
                   "cfg": _cfg_subset(config, (
                       "seed", "lr_decoder", "batch_decoder", "epochs_decoder", "dec_emb",
                       "dec_model", "dec_hidden", "dec_activation", "lambda_h", "lambda_s",
                       "lambda_e", "position_aware", "semantic_len", "query_len",
                       "context_len"))}
        if not st.up_to_date("decoder", payload, ("decoder.ckpt.json",)):
            started = time.perf_counter()
            docids, node_scores, trie = di.load_index(index_path)
            weights = dec.PositionWeightConfig(
                dec.RelevanceOracle(oracle_pairs), trie, lambda_h=config.lambda_h,
                lambda_s=config.lambda_s, lambda_e=config.lambda_e,
                semantic_len=semantic_len, position_aware=config.position_aware)
            cfg = dec.DecoderConfig(emb=config.dec_emb, d_model=config.dec_model,
                                    hidden=config.dec_hidden,
                                    activation=config.dec_activation,
                                    query_len=config.query_len,
                                    context_len=config.context_len, lr=config.lr_decoder,
                                    batch_size=config.batch_decoder,
                                    epochs=config.epochs_decoder, seed=config.seed)
            model, _history = dec.train_decoder(train.rows, catalog, docids, trie, weights,
                                                cfg)
            model.save(decoder_ckpt)
            st.mark("decoder", payload, started)

    report = EvalReport(config=config.echo())
    if "eval" in config.stages:
        payload = {"inputs": {"index": _file_hash(index_path),
                              "decoder": _file_hash(decoder_ckpt),
                              "train": input_hashes["train"], "test": input_hashes["test"]},
                   "cfg": _cfg_subset(config, (
                       "beam_width", "topk", "eval_ks", "variant", "cap", "i2i_alpha",
                       "i2i_top_n", "per_seed_n"))}
        if st.up_to_date("eval", payload, ("report.json",)):
            report = EvalReport.load(report_path)
            report.skipped_stages = list(st.skipped)
            report.timings = st.timings
            return report
        started = time.perf_counter()
        docids, node_scores, trie = di.load_index(index_path)
        model = dec.DecoderModel.load(decoder_ckpt)
        report = _evaluate(config, model, trie, train, test, st)
        report.timings = dict(st.timings)
        report.skipped_stages = list(st.skipped)
        st.mark("eval", payload, started)
        report.timings = dict(st.timings)
        report.save(report_path)
    return report


def _decode_rows(rows, model, trie, config):
    predictions: dict[str, list[str]] = {}
    truths: dict[str, str] = {}
    decoded: dict[str, list] = {}
    for i, row in enumerate(rows):
        key = f"q{i}"
        results = dec.constrained_beam_search(row, model, trie, config.beam_width,
                                              config.topk)
        predictions[key] = [item_id for _d, _lp, item_id in results]
        decoded[key] = [(d, lp) for d, lp, _ in results]
        truths[key] = row.target_item_id
    return predictions, truths, decoded


def _evaluate(config: PipelineConfig, model, trie, train, test, st: _Stages) -> EvalReport:
    report = EvalReport(config=config.echo())
    heldin = [r for r in train.rows if r.click == 1]
    predictions, truths, decoded = _decode_rows(heldin, model, trie, config)
    report.recall = recall_curve(predictions, truths, config.eval_ks)

    cluster_k, use_i2i = variant_parse(config.variant)
    i2i_table = ex.I2ITable({})
    if use_i2i:
        interactions = [(r.user_id, r.target_item_id) for r in train.rows if r.click == 1]
        i2i_table = ex.swing_scores(interactions, alpha=config.i2i_alpha,
                                    top_n=config.i2i_top_n)
        i2i_table.save(st.path("i2i.jsonl"))
    sizes, hits = [], 0
    for key in predictions:
        merged = expand_variant(decoded[key], trie, i2i_table, cluster_k, use_i2i,
                                config.cap, config.per_seed_n)
        sizes.append(merged.recall_num)
        hits += truths[key] in set(merged.item_ids())
    report.recall_num = float(sum(sizes) / len(sizes)) if sizes else 0.0
    report.expanded_recall = hits / len(predictions) if predictions else 0.0

    if test is not None and test.rows:
        test_pos = [r for r in test.rows if r.click == 1]
        if test_pos:
            preds, tr, _ = _decode_rows(test_pos, model, trie, config)
            report.test_recall = recall_curve(preds, tr, config.eval_ks)
        retained, removed = dt.zero_shot_split(train.rows, test.rows)
        retained_pos = [r for r in retained if r.click == 1]
        report.zero_shot_removed_fraction = removed
        if retained_pos:
            preds, tr, _ = _decode_rows(retained_pos, model, trie, config)
            report.zero_shot_recall = recall_curve(preds, tr, config.eval_ks)
    return report


def expand_variant(decoded, trie, i2i_table: ex.I2ITable, cluster_k: int | None,
                   use_i2i: bool, cap: int, per_seed_n: int) -> ex.RecallSet:
    """Combine direct decode results with the configured expansions."""
    direct = ex.direct_hits(decoded, trie)
    cluster = ex.RecallSet([])
    if cluster_k is not None:
        k_eff = min(cluster_k, trie.max_depth)
        cluster = ex.cluster_expand(decoded, trie, k_eff)
    i2i = ex.RecallSet([])
    if use_i2i:
        i2i = ex.i2i_expand(direct.item_ids(), i2i_table, per_seed_n)
    return ex.merge_recall(direct, cluster, i2i, cap)


def run_kfold(config: PipelineConfig) -> dict[int, float]:
    """k-fold cross-validation over the training rows; mean test recall@k."""
    if config.kfold < 2:
        raise ConfigError("kfold requires kfold >= 2")
    catalog = dt.load_catalog(config.catalog_path)
    rows = dt.load_dataset(config.train_path, config.data_schema, catalog).rows
    # folds cut along page-view boundaries so triplet mining stays possible
    group_of: dict[tuple, int] = {}
    fold_of_row = []
    for r in rows:
        key = (r.user_id, r.query, int(r.timestamp // dt.PV_BUCKET_SECONDS))
        if key not in group_of:
            group_of[key] = len(group_of)
        fold_of_row.append(group_of[key] % config.kfold)
    base = Path(config.workdir)
    sums = {int(k): 0.0 for k in config.eval_ks}
    for fold in range(config.kfold):
        fold_dir = base / f"fold{fold}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        train_rows = [r for i, r in enumerate(rows) if fold_of_row[i] != fold]
        test_rows = [r for i, r in enumerate(rows) if fold_of_row[i] == fold]
        dt.save_dataset(fold_dir / "train.jsonl", train_rows)
        dt.save_dataset(fold_dir / "test.jsonl", test_rows)
        sub = PipelineConfig.from_dict(config.echo() | {
            "train_path": str(fold_dir / "train.jsonl"),
            "test_path": str(fold_dir / "test.jsonl"),
            "workdir": str(fold_dir / "work"), "kfold": 0, "data_schema": "jsonl"})
        rep_fold = run_pipeline(sub)
        for k, v in (rep_fold.test_recall or {}).items():
            sums[k] += v
    return {k: v / config.kfold for k, v in sums.items()}


def run_ablation_study(base: PipelineConfig, seeds, k: int = 10) -> dict:
    """Mean recall@k for the full configuration against the loss and
    clustering ablations over several seeds."""
    variants = {"full": {}, "no_position_aware_loss": {"position_aware": False},
                "no_category_clustering": {"category_clustering": False}}
    per_seed: dict[str, list[float]] = {name: [] for name in variants}
    base_dir = Path(base.workdir)
    for seed in seeds:
        for name, tweak in variants.items():
            sub = PipelineConfig.from_dict(base.echo() | tweak | {
                "seed": int(seed), "workdir": str(base_dir / "ablation" / name / str(seed))})
            report = run_pipeline(sub)
            per_seed[name].append(report.recall.get(k, 0.0))
    return {"k": k, "per_seed": per_seed,
            "mean": {name: sum(v) / len(v) for name, v in per_seed.items()}}
