"""Command-line entry points for the full pipeline and its stages."""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from . import data as dt
from . import decoder as dec
from . import docid as di
from . import expansion as ex
from .config import PipelineConfig, variant_parse
from .errors import ConfigError, DataError, HigenError, NumericError
from .pipeline import STAGES, expand_variant, run_ablation_study, run_kfold, run_pipeline

log = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config).apply_env()
    if getattr(args, "workdir", None):
        cfg.workdir = args.workdir
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def cmd_stage(args) -> int:
    cfg = _load_config(args)
    cfg.stages = (args.stage,)
    report = run_pipeline(cfg)
    if args.stage == "eval":
        print(report.summary())
    return 0


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    if args.no_position_aware_loss:
        cfg.position_aware = False
    if args.no_category_clustering:
        cfg.category_clustering = False
    if args.kfold and args.kfold < 2:
        raise ConfigError(f"--kfold must be 0 (off) or >= 2, got {args.kfold}")
    report = run_pipeline(cfg)
    if args.kfold:
        report.kfold_recall = run_kfold(cfg, args.kfold)
        report.save(Path(cfg.workdir) / "report.json")
    print(report.summary())
    print(f"report written to {Path(cfg.workdir) / 'report.json'}")
    return 0


def cmd_ablation(args) -> int:
    cfg = _load_config(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds takes comma-separated integers, got {args.seeds!r}") from None
    result = run_ablation_study(cfg, seeds, k=args.k)
    out = Path(cfg.workdir) / "ablation.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    dt.write_json(out, result, indent=2)
    for name, mean in result["mean"].items():
        print(f"{name}: mean recall@{args.k} = {mean:.4f}")
    print(f"ablation report written to {out}")
    return 0


def cmd_gen_synthetic(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = dt.generate_synthetic(
        n_items=args.items, n_categories=args.categories,
        n_train_queries=args.train_queries, n_test_queries=args.test_queries,
        n_users=args.users, seed=args.seed, overlap_fraction=args.overlap)
    dt.save_catalog(out / "catalog.jsonl", corpus.catalog)
    dt.save_dataset(out / "train.jsonl", corpus.train_rows)
    dt.save_dataset(out / "test.jsonl", corpus.test_rows)
    dt.write_oracle_jsonl(out / "oracle.jsonl", corpus.oracle_pairs)
    cfg = PipelineConfig.desk(
        catalog_path=str(out / "catalog.jsonl"), train_path=str(out / "train.jsonl"),
        test_path=str(out / "test.jsonl"), oracle_path=str(out / "oracle.jsonl"),
        workdir=str(out / "work"), seed=args.seed)
    dt.write_json(out / "config.json", cfg.echo(), indent=2)
    print(f"synthetic corpus written to {out} ({args.items} items, "
          f"{args.train_queries} train queries); config at {out / 'config.json'}")
    return 0


def _query_row(rec) -> dt.DatasetRow:
    user_id, query = rec.get("user_id", ""), rec["query"]
    if not isinstance(query, str) or not isinstance(user_id, str):
        raise DataError("query, and user_id when given, must be strings")
    return dt.DatasetRow(user_id, query, dt._parse_context(rec.get("context", [])), "", 0, 0, 0.0)


def cmd_decode(args) -> int:
    dec.check_beam(args.beam, args.topk)   # before any input: an empty one decodes nothing
    model, trie = dec.load_for_index(args.index, args.checkpoint)
    rows = dt.read_jsonl(args.input, _query_row)

    def record(row) -> dict:
        results = dec.constrained_beam_search(row, model, trie, args.beam, args.topk)
        return {"query": row.query,
                "results": [{"docid": d.text(), "item_id": item_id, "logprob": lp}
                            for d, lp, item_id in results]}

    dt.write_jsonl(args.output, map(record, rows))   # lazily: decode streams
    return 0


def cmd_expand(args) -> int:
    _docids, _scores, trie = di.load_index(args.index)
    cluster_k, use_i2i = variant_parse(args.variant)
    table = ex.I2ITable.load(args.i2i) if args.i2i else ex.I2ITable({})
    if use_i2i and not args.i2i:
        raise ConfigError(f"variant '{args.variant}' needs --i2i TABLE")

    def decoded(rec):
        pairs = []
        for res in rec["results"]:
            node = trie.node_at(di.parse_docid_text(str(res["docid"])))
            if node is None or node.docid is None:
                raise DataError(f"docid {res['docid']!r} not present in the index")
            logprob = float(res.get("logprob", 0.0))
            if not math.isfinite(logprob):
                raise ValueError(f"logprob {res['logprob']!r} is not finite")
            pairs.append((node.docid, logprob, node.item_id))
        return rec.get("query"), pairs

    def record(decoded_line) -> dict:
        query, hits = decoded_line
        merged = expand_variant(hits, trie, table, cluster_k, use_i2i, args.cap,
                                args.per_seed_n)
        return {"query": query, "recall_num": merged.recall_num,
                "items": [{"item_id": e.item_id, "source": e.source, "score": e.score}
                          for e in merged.entries]}

    dt.write_jsonl(args.output, map(record, dt.read_jsonl(args.input, decoded)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="higen",
                                     description="generative retrieval pipeline")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic corpus and config")
    gen.add_argument("--out", required=True)
    gen.add_argument("--items", type=int, default=500)
    gen.add_argument("--categories", type=int, default=50)
    gen.add_argument("--train-queries", type=int, default=200)
    gen.add_argument("--test-queries", type=int, default=100)
    gen.add_argument("--users", type=int, default=20)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--overlap", type=float, default=0.5)
    gen.set_defaults(func=cmd_gen_synthetic)

    for stage in STAGES:
        p = sub.add_parser(stage.command, help=f"run the {stage.name} stage")
        p.add_argument("--config", required=True)
        p.add_argument("--workdir")
        p.add_argument("--seed", type=int)
        p.set_defaults(func=cmd_stage, stage=stage.name)

    run = sub.add_parser("run-all", help="run every stage and write the report")
    run.add_argument("--config", required=True)
    run.add_argument("--workdir")
    run.add_argument("--seed", type=int)
    run.add_argument("--no-position-aware-loss", action="store_true",
                     help="train the decoder with plain cross-entropy")
    run.add_argument("--no-category-clustering", action="store_true",
                     help="cluster all items globally instead of per category")
    run.add_argument("--kfold", type=int, default=0)
    run.set_defaults(func=cmd_run_all)

    abl = sub.add_parser("ablation", help="run the seed-averaged ablation study")
    abl.add_argument("--config", required=True)
    abl.add_argument("--workdir")
    abl.add_argument("--seed", type=int)
    abl.add_argument("--seeds", default="0,1,2,3,4")
    abl.add_argument("--k", type=int, default=10)
    abl.set_defaults(func=cmd_ablation)

    de = sub.add_parser("decode", help="decode queries to docIDs")
    de.add_argument("--index", required=True)
    de.add_argument("--checkpoint", required=True)
    de.add_argument("--beam", type=int, default=10)
    de.add_argument("--topk", type=int, default=10)
    de.add_argument("--input", default="-")
    de.add_argument("--output", default="-")
    de.set_defaults(func=cmd_decode)

    exp = sub.add_parser("expand", help="expand decode output into a recall set")
    exp.add_argument("--index", required=True)
    exp.add_argument("--variant", default="direct",
                     help="direct | cluster-K | i2i | cluster-K-i2i")
    exp.add_argument("--cap", type=int, default=5000)
    exp.add_argument("--i2i", help="I2I table JSONL")
    exp.add_argument("--per-seed-n", type=int, default=10)
    exp.add_argument("--input", default="-")
    exp.add_argument("--output", default="-")
    exp.set_defaults(func=cmd_expand)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HigenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
