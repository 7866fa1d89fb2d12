"""Stage orchestration driven by one table.

`STAGES` holds the pipeline embed -> metric -> docids -> decoder -> eval as
rows of `Stage(name, command, reads, cfg, writes, run)`. `reads` names the
files a stage reads: config path fields (`catalog_path`, ...) for inputs and
file names in the workdir for artifacts of earlier stages. `cfg` names the
config fields it uses and `writes` the artifacts it leaves in the workdir.

`run_pipeline` walks the table for the stages in `config.stages`. A stage's
key hashes the package source, its `cfg` values and the content of every
file in `reads`. The stage is skipped when the key equals `<stage>.hash`
and every file in `writes` exists. Otherwise the hash file is deleted and
the stage runs into a scratch directory inside the workdir, given a
namespace that holds only its `cfg` fields and input paths; its outputs are
then moved into place with `os.replace` and the key is recorded last. A
stage that fails leaves the earlier artifacts as they were and no hash, so
the next run re-runs it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

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

# Any edit to the package changes every stage key.
SOURCE_HASH = hashlib.sha256(b"".join(
    p.name.encode() + p.read_bytes() for p in sorted(Path(__file__).parent.glob("*.py"))
)).hexdigest()


@dataclass(frozen=True)
class Stage:
    name: str
    command: str                 # CLI subcommand
    reads: tuple[str, ...]       # config path fields, then workdir artifacts
    cfg: tuple[str, ...]         # config fields the stage uses
    writes: tuple[str, ...]      # artifacts the stage leaves in the workdir
    run: Callable                # run(c, work, out): reads work/, writes out/


def _file_hash(path) -> str:
    if not path:
        return ""      # optional input left unset
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


def _stage_key(stage: Stage, config: PipelineConfig, workdir: Path) -> str:
    echo = config.echo()
    payload = {"source": SOURCE_HASH, "cfg": {n: echo[n] for n in stage.cfg},
               "reads": {r: _file_hash(echo[r] if r.endswith("_path") else workdir / r)
                         for r in stage.reads}}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_pipeline(config: PipelineConfig) -> EvalReport:
    """Run the stages named in config.stages, in table order. The report
    carries this call's timings and skipped stages, and the metrics when
    the eval stage is among them."""
    config.validate()
    if not config.catalog_path or not config.train_path:
        raise ConfigError("catalog_path and train_path are required")
    unknown = set(config.stages) - {stage.name for stage in STAGES}
    if unknown:
        raise ConfigError(f"unknown stage names: {sorted(unknown)}")
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    skipped: list[str] = []
    for stage in STAGES:
        if stage.name not in config.stages:
            continue
        started = time.perf_counter()
        key = _stage_key(stage, config, workdir)
        hash_file = workdir / f"{stage.name}.hash"
        if hash_file.exists() and hash_file.read_text() == key and \
                all((workdir / name).exists() for name in stage.writes):
            skipped.append(stage.name)
            timings[stage.name] = 0.0
            log.info("stage %s: unchanged, skipping", stage.name)
            continue
        hash_file.unlink(missing_ok=True)
        out = workdir / f".{stage.name}.tmp"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        fields = stage.cfg + tuple(r for r in stage.reads if r.endswith("_path"))
        try:
            stage.run(SimpleNamespace(**{n: getattr(config, n) for n in fields}), workdir, out)
            for name in stage.writes:
                os.replace(out / name, workdir / name)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        dt.write_text(hash_file, [key])
        timings[stage.name] = time.perf_counter() - started
        log.info("stage %s: %.2fs", stage.name, timings[stage.name])

    if "eval" not in config.stages:
        return EvalReport(config=config.echo(), timings=timings, skipped_stages=skipped)
    report = EvalReport.load(workdir / "report.json")
    report.config, report.timings, report.skipped_stages = config.echo(), timings, skipped
    report.save(workdir / "report.json")     # eval's metrics with this call's record
    return report


def _catalog(c) -> list[dt.Item]:
    catalog = dt.load_catalog(c.catalog_path)
    if not catalog:
        raise DataError(f"empty catalog at {c.catalog_path}")
    return catalog


def _train(c, catalog) -> dt.LoadResult:
    train = dt.load_dataset(c.train_path, c.data_schema, catalog)
    if not train.rows:
        raise DataError(f"empty dataset at {c.train_path}")
    return train


def _embed(c, work: Path, out: Path) -> None:
    catalog = _catalog(c)
    train = _train(c, catalog)
    cfg = rep.TwoTowerConfig(
        d_k=c.d_k, d_u=c.d_u, d_e=c.embed_dim, d_atomic=c.embed_dim,
        user_hidden=c.embed_hidden, head_hidden=c.embed_hidden, tau=c.tau, w_c=c.w_c,
        lr=c.lr_embed, batch_size=c.batch_embed, epochs=c.epochs_embed, seed=c.seed,
        query_len=c.query_len, context_len=c.context_len, sem_len=c.sem_len)
    model = rep.train_embedding(train.rows, catalog, cfg)
    rep.write_atomic_jsonl(out / "atomic.jsonl", rep.export_atomic_embeddings(model, catalog))
    model.save(out / "embed.ckpt.json")


def _metric(c, work: Path, out: Path) -> None:
    train = _train(c, _catalog(c))
    atomic = rep.read_atomic_jsonl(work / "atomic.jsonl")
    cfg = fu.MetricConfig(d_out=c.fusion_dim, hidden=c.fusion_hidden, margin=c.margin,
                          lr=c.lr_metric, batch_size=c.batch_metric, epochs=c.epochs_metric,
                          cap_per_pv=c.cap_per_pv, seed=c.seed)
    fmodel = fu.train_metric(atomic, train.page_views, cfg)
    fu.write_fusion_jsonl(out / "fusion.jsonl", fu.fuse_table(atomic, fmodel))
    fmodel.save(out / "fusion.ckpt.json")


def _docids(c, work: Path, out: Path) -> None:
    catalog = _catalog(c)
    docids, node_scores = di.build_docids(
        fu.read_fusion_jsonl(work / "fusion.jsonl"),
        {it.item_id: it.efficient_score for it in catalog},
        {it.item_id: it.category_path for it in catalog}, max_len=c.docid_max_len,
        k=c.kmeans_k, cs=c.max_cluster, seed=c.seed, use_categories=c.category_clustering)
    di.serialize_index(docids, node_scores, out / "index.json")


def _decoder(c, work: Path, out: Path) -> None:
    catalog = _catalog(c)
    train = _train(c, catalog)
    oracle_pairs = dt.read_oracle_jsonl(c.oracle_path) if c.oracle_path else []
    docids, _node_scores, trie = di.load_index(work / "index.json")
    weights = dec.PositionWeightConfig(
        dec.RelevanceOracle(oracle_pairs), trie, lambda_h=c.lambda_h, lambda_s=c.lambda_s,
        lambda_e=c.lambda_e, position_aware=c.position_aware)
    cfg = dec.DecoderConfig(emb=c.dec_emb, d_model=c.dec_model, hidden=c.dec_hidden,
                            query_len=c.query_len, context_len=c.context_len, lr=c.lr_decoder,
                            batch_size=c.batch_decoder, epochs=c.epochs_decoder, seed=c.seed)
    model, _history = dec.train_decoder(train.rows, catalog, docids, weights, cfg)
    model.save(out / "decoder.ckpt.json")


def _decode_rows(rows, model, trie, c):
    predictions: dict[str, list[str]] = {}
    truths: dict[str, str] = {}
    decoded: dict[str, list] = {}
    for i, row in enumerate(rows):
        key = f"q{i}"
        results = dec.constrained_beam_search(row, model, trie, c.beam_width, c.topk)
        predictions[key] = [item_id for _d, _lp, item_id in results]
        decoded[key] = results
        truths[key] = row.target_item_id
    return predictions, truths, decoded


def _eval(c, work: Path, out: Path) -> None:
    """Recall of the held-in, test and zero-shot rows, and the merged recall
    set of the configured variant. The I2I table it used goes to i2i.jsonl,
    empty when the variant has no I2I part."""
    catalog = _catalog(c)
    train = _train(c, catalog)
    test = dt.load_dataset(c.test_path, c.data_schema, catalog) if c.test_path else None
    model, trie = dec.load_for_index(work / "index.json", work / "decoder.ckpt.json")
    report = EvalReport()
    heldin = [r for r in train.rows if r.click == 1]
    predictions, truths, decoded = _decode_rows(heldin, model, trie, c)
    report.recall = recall_curve(predictions, truths, c.eval_ks)

    cluster_k, use_i2i = variant_parse(c.variant)
    i2i_table = ex.I2ITable({})
    if use_i2i:
        interactions = [(r.user_id, r.target_item_id) for r in train.rows if r.click == 1]
        i2i_table = ex.swing_scores(interactions, alpha=c.i2i_alpha, top_n=c.i2i_top_n)
    i2i_table.save(out / "i2i.jsonl")
    report.i2i_items = len(i2i_table.neighbors)
    sizes, hits = [], 0
    for key in predictions:
        merged = expand_variant(decoded[key], trie, i2i_table, cluster_k, use_i2i,
                                c.cap, c.per_seed_n)
        sizes.append(merged.recall_num)
        hits += truths[key] in set(merged.item_ids())
    report.recall_num = float(sum(sizes) / len(sizes)) if sizes else 0.0
    report.expanded_recall = hits / len(predictions) if predictions else 0.0

    if test is not None and test.rows:
        test_pos = [r for r in test.rows if r.click == 1]
        retained, report.zero_shot_removed_fraction = dt.zero_shot_split(train.rows, test.rows)
        if test_pos:
            preds, tr, _ = _decode_rows(test_pos, model, trie, c)
            report.test_recall = recall_curve(preds, tr, c.eval_ks)
            # the retained rows are test rows: their decodes are already in preds
            kept = set(retained)
            zero_shot = {key: tr[key] for key, r in zip(tr, test_pos) if r in kept}
            if zero_shot:
                report.zero_shot_recall = recall_curve(preds, zero_shot, c.eval_ks)
    report.save(out / "report.json")


STAGES = (
    Stage("embed", "train-embed", ("catalog_path", "train_path"),
          ("data_schema", "seed", "lr_embed", "batch_embed", "epochs_embed", "embed_dim",
           "d_k", "d_u", "embed_hidden", "tau", "w_c", "query_len", "context_len", "sem_len"),
          ("atomic.jsonl", "embed.ckpt.json"), _embed),
    Stage("metric", "train-metric", ("catalog_path", "train_path", "atomic.jsonl"),
          ("data_schema", "seed", "lr_metric", "batch_metric", "epochs_metric", "fusion_dim",
           "fusion_hidden", "margin", "cap_per_pv"),
          ("fusion.jsonl", "fusion.ckpt.json"), _metric),
    Stage("docids", "build-docids", ("catalog_path", "fusion.jsonl"),
          ("seed", "kmeans_k", "max_cluster", "docid_max_len", "category_clustering"),
          ("index.json",), _docids),
    Stage("decoder", "train-decoder", ("catalog_path", "train_path", "oracle_path", "index.json"),
          ("data_schema", "seed", "lr_decoder", "batch_decoder", "epochs_decoder", "dec_emb",
           "dec_model", "dec_hidden", "lambda_h", "lambda_s", "lambda_e", "position_aware",
           "query_len", "context_len"),
          ("decoder.ckpt.json",), _decoder),
    Stage("eval", "eval",
          ("catalog_path", "train_path", "test_path", "index.json", "decoder.ckpt.json"),
          ("data_schema", "beam_width", "topk", "eval_ks", "variant", "cap", "i2i_alpha",
           "i2i_top_n", "per_seed_n"),
          ("i2i.jsonl", "report.json"), _eval),
)


def expand_variant(decoded, trie, i2i_table: ex.I2ITable, cluster_k: int | None,
                   use_i2i: bool, cap: int, per_seed_n: int) -> ex.RecallSet:
    """Combine direct decode results, (DocId, logprob) pairs or the beam's
    (DocId, logprob, item_id) triples, with the configured expansions."""
    direct = ex.direct_hits(decoded, trie)
    cluster = ex.RecallSet([])
    if cluster_k is not None:
        k_eff = min(cluster_k, trie.max_depth)
        cluster = ex.cluster_expand(decoded, trie, k_eff)
    i2i = ex.RecallSet([])
    if use_i2i:
        i2i = ex.i2i_expand(direct.item_ids(), i2i_table, per_seed_n)
    return ex.merge_recall(direct, cluster, i2i, cap)


def run_kfold(config: PipelineConfig, k: int) -> dict[int, float]:
    """k-fold cross-validation over the training rows; mean test recall per eval_ks."""
    if k < 2:
        raise ConfigError("kfold requires k >= 2")
    catalog = dt.load_catalog(config.catalog_path)
    rows = dt.load_dataset(config.train_path, config.data_schema, catalog).rows
    # folds cut along page-view boundaries so triplet mining stays possible
    group_of: dict[tuple, int] = {}
    fold_of_row = []
    for r in rows:
        group = group_of.setdefault(dt.page_view_key(r), len(group_of))
        fold_of_row.append(group % k)
    base = Path(config.workdir)
    sums = {int(at): 0.0 for at in config.eval_ks}
    for fold in range(k):
        fold_dir = base / f"fold{fold}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        train_rows = [r for i, r in enumerate(rows) if fold_of_row[i] != fold]
        test_rows = [r for i, r in enumerate(rows) if fold_of_row[i] == fold]
        dt.save_dataset(fold_dir / "train.jsonl", train_rows)
        dt.save_dataset(fold_dir / "test.jsonl", test_rows)
        sub = PipelineConfig.from_dict(config.echo() | {
            "train_path": str(fold_dir / "train.jsonl"),
            "test_path": str(fold_dir / "test.jsonl"),
            "workdir": str(fold_dir / "work"), "data_schema": "jsonl"})
        rep_fold = run_pipeline(sub)
        for at, v in (rep_fold.test_recall or {}).items():
            sums[at] += v
    return {at: v / k for at, v in sums.items()}


def run_ablation_study(base: PipelineConfig, seeds, k: int = 10) -> dict:
    """Mean recall@k for the full configuration against the loss and
    clustering ablations over several seeds. A seed's variants share the
    workdir <workdir>/ablation/<seed>, and the stage keys rebuild what each
    changes: the loss ablation the decoder onward, the clustering one the
    docIDs onward. Only the last variant's artifacts stay."""
    if k not in base.eval_ks:
        raise ConfigError(f"--k {k} is not one of eval_ks {list(base.eval_ks)}")
    variants = {"full": {}, "no_position_aware_loss": {"position_aware": False},
                "no_category_clustering": {"category_clustering": False}}
    per_seed: dict[str, list[float]] = {name: [] for name in variants}
    base_dir = Path(base.workdir)
    # every run's config is checked before the first one trains
    runs = [(name, PipelineConfig.from_dict(base.echo() | tweak | {
        "seed": int(seed), "workdir": str(base_dir / "ablation" / str(seed))}).validate())
        for seed in seeds for name, tweak in variants.items()]
    for name, sub in runs:
        per_seed[name].append(run_pipeline(sub).recall[k])
    return {"k": k, "per_seed": per_seed,
            "mean": {name: sum(v) / len(v) for name, v in per_seed.items()}}
