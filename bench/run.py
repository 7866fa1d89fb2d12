#!/usr/bin/env python3
"""Benchmark of the higen pipeline: serving latency and cold run-all time.

    python3 bench/run.py --workload serve-500 --seed 0 --seconds 20 --trace 0

Run from the repository root. Each run generates its corpus from --seed
with `higen gen-synthetic`, builds the index and decoder with
`pipeline.run_pipeline` (one call per stage), serves queries with one
client in a closed loop (each query waits for the previous one), checks
the outputs, and prints one JSON result as the last line of stdout. With
--trace 0 the result holds the end-to-end metrics; with --trace 1 the same
work runs once untraced and once traced and the result holds per-layer
metrics from spans recorded around the calls into each higen module. The
line before the result is a record of the machine and of the inputs.

Work files go to .bench_work/ under the current directory and are removed
at the end. See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1          # small matrices; one thread keeps latency steady
SETUP_REPEATS = 3
# A query's latency is the mean of its repeats in the run without the slowest
# one. The repeats spread over the whole serving phase: a shared host can
# change speed by a third within seconds as other load comes and goes, and a
# mean averages those swings where a median jumps with them, while dropping
# the slowest repeat keeps one stall from setting the query's figure.
MIN_CYCLES = 3
STAGES = ("embed", "metric", "docids", "decoder", "eval")

# Serving parameters pinned here so the workloads do not drift with the
# desk preset; gen-synthetic's config supplies everything else.
SERVING = {"beam_width": 16, "topk": 10, "variant": "cluster-2-i2i", "cap": 5000}


@dataclass(frozen=True)
class Workload:
    corpus: tuple[str, ...]      # gen-synthetic flags besides --out and --seed
    config: dict                 # PipelineConfig overrides
    builds: int                  # cold run-alls in an untraced run
    serve_share: float           # share of --seconds spent serving
    brute_force: bool            # compare beams against brute_force_scores
    needs_i2i: bool              # fail if the Swing table or its share is empty


WORKLOADS = {
    # The serving path: step net, trie walk and all three expansion
    # sources. Users revisit items, so the Swing table is live.
    "serve-500": Workload(("--items", "500", "--train-queries", "1000", "--users", "10"),
                          {"epochs_embed": 10, "epochs_decoder": 30}, 1, 1.0, True, True),
    # Mostly training, with teacher-forced batched position_logits.
    "train-500": Workload(("--items", "500"), {}, 2, 0.75, True, False),
    # Ten times the catalog, same traffic: index build, export and fusion
    # of 5000 items, a deeper trie and larger cluster sets.
    "catalog-5000": Workload(("--items", "5000"), {"epochs_embed": 10, "epochs_decoder": 20},
                             2, 0.75, False, False),
}

# --tiny shrinks every workload for the smoke test; the structure is kept.
TINY_CORPUS = ("--items", "60", "--categories", "6", "--train-queries", "120",
               "--test-queries", "20", "--users", "4")
TINY_CONFIG = {"epochs_embed": 2, "epochs_metric": 2, "epochs_decoder": 4}


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    global np, cli, dt, dec, di, ex, fu, nn, pl, rep, PipelineConfig, variant_parse
    global HigenError, Tracer
    import numpy as np
    from higen import cli, data as dt, decoder as dec, docid as di, expansion as ex
    from higen import fusion as fu, nn, pipeline as pl, representation as rep
    from higen.config import PipelineConfig, variant_parse
    from higen.errors import HigenError
    from tracer import Tracer


def unit_of(metric: str) -> str:
    """Units follow the metric-name suffix; BENCHMARK.json repeats them."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_frac", "frac"), ("recall_at_10", "frac"),
                         ("expanded_recall", "frac"), ("results_per_step", "1/call")):
        if metric.endswith(suffix):
            return unit
    return "frac" if ".mix_" in metric else "count"


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# machine record


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30,
                          env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    return done.stdout.strip() or "unknown"


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": _blas_threads(), "platform": platform.platform(),
            "commit": _git_commit()}


# ---------------------------------------------------------------------------
# phases


def make_corpus(out: Path, seed: int, flags) -> dict:
    """gen-synthetic into `out`, then load what the pipeline will read."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["gen-synthetic", "--out", str(out), "--seed", str(seed), *flags])
    if code != 0:
        raise RuntimeError(f"gen-synthetic exited with {code}")
    catalog = dt.load_catalog(out / "catalog.jsonl")
    return {"catalog": catalog, "train": dt.load_dataset(out / "train.jsonl", "jsonl", catalog),
            "test": dt.load_dataset(out / "test.jsonl", "jsonl", catalog)}


def build(base, workdir: Path, tracer=None):
    """One cold run-all, one run_pipeline call per stage; returns the
    per-stage wall times and the eval report."""
    times = {}
    report = None
    for stage in STAGES:
        cfg = PipelineConfig.from_dict(base.echo() | {"workdir": str(workdir), "stages": [stage]})
        started = time.perf_counter()
        with _span(tracer, f"pipeline.{stage}"):
            report = pl.run_pipeline(cfg)
        times[stage] = time.perf_counter() - started
    return times, report


@dataclass
class Server:
    cfg: object
    trie: object
    model: object
    i2i: object
    rows: list


def prepare_server(cfg, workdir: Path, data: dict) -> Server:
    _docids, _scores, trie = di.load_index(workdir / "index.json")
    model = dec.DecoderModel.load(workdir / "decoder.ckpt.json")
    heldin = [r for r in data["train"].rows if r.click == 1]
    i2i = ex.swing_scores([(r.user_id, r.target_item_id) for r in heldin],
                          alpha=cfg.i2i_alpha, top_n=cfg.i2i_top_n)
    rows = heldin + [r for r in data["test"].rows if r.click == 1]
    return Server(cfg, trie, model, i2i, rows)


@dataclass
class Served:
    """What a serving phase leaves for the checks. Only the first answer per
    row is kept, so harness objects do not pile up for the garbage collector
    during the timed loop."""

    latencies: dict      # row index -> seconds per repeat
    wall: float
    failed: int
    beams: dict          # row index -> first beam
    outcomes: dict       # row index -> (target in merged set, per-source counts)
    repeats_differ: int  # later answers that differ from the row's first

    @property
    def count(self) -> int:
        return sum(len(v) for v in self.latencies.values())


def serve(srv: Server, cycles: int, seconds: float = 0.0, tracer=None) -> Served:
    """Closed loop, one client: queries cycle over the clicked held-in and
    test rows. Runs at least `cycles` whole cycles and for at least
    `seconds`, ending on a cycle boundary."""
    cfg = srv.cfg
    cluster_k, use_i2i = variant_parse(cfg.variant)
    latencies, beams, outcomes = {}, {}, {}
    failed = differ = 0
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    n_rows = len(srv.rows)
    while i < cycles * n_rows or i % n_rows or time.perf_counter() < deadline:
        idx = i % n_rows
        i += 1
        t0 = time.perf_counter()
        try:
            with _span(tracer, "query"):
                beam = dec.constrained_beam_search(srv.rows[idx], srv.model, srv.trie,
                                                   cfg.beam_width, cfg.topk)
                merged = pl.expand_variant([(d, lp) for d, lp, _ in beam], srv.trie, srv.i2i,
                                           cluster_k, use_i2i, cfg.cap, cfg.per_seed_n)
        except HigenError as exc:
            failed += 1
            print(f"query {idx} failed: {exc}", file=sys.stderr)
            continue
        latencies.setdefault(idx, []).append(time.perf_counter() - t0)
        if idx in beams:
            differ += beam != beams[idx]       # one seed, one answer
        else:
            beams[idx] = beam
            sources = {"direct": 0, "cluster": 0, "i2i": 0}
            for e in merged.entries:
                sources[e.source] += 1
            target = srv.rows[idx].target_item_id
            outcomes[idx] = (any(e.item_id == target for e in merged.entries), sources)
    return Served(latencies, time.perf_counter() - started, failed, beams, outcomes, differ)


# ---------------------------------------------------------------------------
# output checks (outside the timed phases)


def check_outputs(srv: Server, served: Served, reports,
                  brute_force: bool) -> tuple[int, int, dict]:
    """Returns (checks made, violations, summary of the distinct queries)."""
    checks = served.count + len(served.beams)
    violations = served.repeats_differ
    for beam in served.beams.values():
        violations += any(srv.trie.lookup(d.tokens) != item_id for d, _lp, item_id in beam)
    if brute_force:
        rows = sorted(served.beams)
        topk = srv.cfg.topk
        for idx in sorted({rows[0], rows[len(rows) // 2], rows[-1]}):
            checks += 1
            row = srv.rows[idx]
            exact = dec.brute_force_scores(srv.model, srv.trie, row)
            # A beam as wide as the index reproduces brute force bit for bit.
            full = dec.constrained_beam_search(row, srv.model, srv.trie, srv.trie.n_items, topk)
            bad = [(d.tokens, lp, item_id) for d, lp, item_id in full] != exact[:topk]
            # The served beam may prune a prefix, but each score it returns is exact.
            score = {tokens: lp for tokens, lp, _item in exact}
            bad = bad or any(score.get(d.tokens) != lp for d, lp, _i in served.beams[idx])
            violations += bad
    for report in reports[1:]:
        checks += 1
        violations += report.metrics() != reports[0].metrics()
    mix = {"direct": 0, "cluster": 0, "i2i": 0}
    for _hit, sources in served.outcomes.values():
        for k, v in sources.items():
            mix[k] += v
    n = max(len(served.outcomes), 1)
    total = max(sum(mix.values()), 1)
    summary = {"distinct_queries": len(served.outcomes),
               "expanded_recall": sum(hit for hit, _s in served.outcomes.values()) / n,
               "recall_num": sum(mix.values()) / n,
               "mix": {k: v / total for k, v in mix.items()}}
    return checks, violations, summary


def guard_i2i(srv: Server, summary: dict) -> None:
    if not srv.i2i.neighbors:
        raise SystemExit("workload guard: the Swing I2I table is empty")
    if summary["mix"]["i2i"] == 0:
        raise SystemExit("workload guard: no merged recall entry came from I2I")


def trie_shape(trie) -> tuple[int, int]:
    fanout, stack = 0, [trie.root]
    while stack:
        node = stack.pop()
        fanout = max(fanout, len(node.children))
        stack.extend(node.children.values())
    return trie.max_depth, fanout


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# tracing


def install_trace_points(tracer) -> None:
    """Spans around the public functions each higen module offers the
    others; every call site looks these names up at call time."""
    points = [
        (dt, "load_catalog", "data.load"), (dt, "load_dataset", "data.load"),
        (dt, "read_oracle_jsonl", "data.load"),
        (rep, "train_embedding", "representation.train"),
        (rep, "export_atomic_embeddings", "representation.export"),
        (fu, "train_metric", "fusion.train"), (fu, "fuse_table", "fusion.fuse_table"),
        (di, "build_docids", "docid.build"), (di, "kmeans", "docid.kmeans"),
        (di, "load_index", "docid.load_index"), (di.DocIdTrie, "node_at", "docid.node_at"),
        (dec, "train_decoder", "decoder.train"), (dec, "position_aware_loss", "decoder.loss"),
        (dec, "greedy_argmax_token", "decoder.greedy"),
        (dec, "constrained_beam_search", "decoder.beam"),
        (dec.DecoderModel, "encode", "decoder.encode"),
        (dec.DecoderModel, "position_logits", "decoder.step"),
        (nn, "log_softmax_rows", "nn.log_softmax_rows"), (nn.Tensor, "backward", "nn.backward"),
        (nn.Adam, "step", "nn.adam_step"),
        (pl, "expand_variant", "expansion.expand"), (ex, "cluster_expand", "expansion.cluster"),
        (ex, "i2i_expand", "expansion.i2i"), (ex, "merge_recall", "expansion.merge"),
        (ex, "swing_scores", "expansion.swing"),
    ]
    for owner, attr, name in points:
        tracer.wrap(owner, attr, name)
    tracer.wrap(fu, "mine_triplets", "fusion.mine_triplets", count=len)


def layer_metrics(table: dict, counts: dict, n_queries: int, n_results: int) -> dict:
    """Per-layer figures from one traced build and n_queries traced queries."""

    def pick(root=None, parent=None, name=None):
        calls, total, own = 0, 0.0, 0.0
        for (r, p, n), (c, t, s) in table.items():
            if (root is None or r == root) and (parent is None or p == parent) and n == name:
                calls, total, own = calls + c, total + t, own + s
        return calls, total, own

    q = max(n_queries, 1)
    per_query_ms = {  # name -> (parent span, span name)
        "decoder.encode_ms": ("decoder.beam", "decoder.encode"),
        "decoder.step_ms": ("decoder.beam", "decoder.step"),
        "decoder.logsoftmax_ms": ("decoder.beam", "nn.log_softmax_rows"),
        "decoder.trie_ms": ("decoder.beam", "docid.node_at"),
        "expansion.expand_ms": ("query", "expansion.expand"),
        "expansion.cluster_ms": ("expansion.expand", "expansion.cluster"),
        "expansion.i2i_ms": ("expansion.expand", "expansion.i2i"),
        "expansion.merge_ms": ("expansion.expand", "expansion.merge"),
    }
    m = {key: pick("query", parent, name)[1] / q * 1e3
         for key, (parent, name) in per_query_ms.items()}
    step_calls = pick("query", "decoder.beam", "decoder.step")[0]
    m["decoder.step_calls"] = step_calls / q
    m["decoder.beam_self_ms"] = pick("query", "query", "decoder.beam")[2] / q * 1e3
    m["decoder.results_per_step"] = n_results / max(step_calls, 1)
    query_ms = pick("query", None, "query")[1] / q * 1e3
    accounted = sum(m[k] for k in ("decoder.encode_ms", "decoder.step_ms",
                                   "decoder.logsoftmax_ms", "decoder.trie_ms",
                                   "decoder.beam_self_ms", "expansion.expand_ms"))
    m["trace.query_ms"] = query_ms
    m["trace.accounted_frac"] = accounted / query_ms if query_ms else 0.0

    dec_root = "pipeline.decoder"
    m["decoder.train_s"] = pick(dec_root, None, "decoder.train")[1]
    loss_calls, loss_s, _ = pick(dec_root, None, "decoder.loss")
    m["decoder.loss_ms"] = loss_s / max(loss_calls, 1) * 1e3
    m["decoder.greedy_calls"] = pick(dec_root, None, "decoder.greedy")[0]
    for stage in ("embed", "metric", "decoder"):
        m[f"{stage}.backward_s"] = pick(f"pipeline.{stage}", None, "nn.backward")[1]
        m[f"{stage}.adam_s"] = pick(f"pipeline.{stage}", None, "nn.adam_step")[1]
    m["representation.train_s"] = pick("pipeline.embed", None, "representation.train")[1]
    m["representation.export_s"] = pick("pipeline.embed", None, "representation.export")[1]
    m["fusion.train_s"] = pick("pipeline.metric", None, "fusion.train")[1]
    m["fusion.triplets"] = counts.get("fusion.mine_triplets", 0)
    m["fusion.fuse_table_s"] = pick("pipeline.metric", None, "fusion.fuse_table")[1]
    m["docid.build_s"] = pick("pipeline.docids", None, "docid.build")[1]
    kmeans_calls, kmeans_s, _ = pick("pipeline.docids", None, "docid.kmeans")
    m["docid.kmeans_calls"] = kmeans_calls
    m["docid.kmeans_s"] = kmeans_s
    load_calls, load_s, _ = pick(None, None, "docid.load_index")
    m["docid.load_index_s"] = load_s / max(load_calls, 1)
    swing_calls, swing_s, _ = pick(None, None, "expansion.swing")
    m["expansion.swing_s"] = swing_s / max(swing_calls, 1)
    m["data.load_s"] = sum(pick(f"pipeline.{s}", None, "data.load")[1] for s in STAGES)
    return m


def self_times(table: dict) -> dict:
    out: dict[str, float] = {}
    for (_root, _parent, name), (_calls, _total, own) in table.items():
        out[name] = out.get(name, 0.0) + own
    return out


# ---------------------------------------------------------------------------
# runs


def setup(work: Path, seed: int, wl: Workload, tiny: bool):
    flags = TINY_CORPUS if tiny else wl.corpus
    times, data = [], None
    for rep_i in range(SETUP_REPEATS):
        started = time.perf_counter()
        data = make_corpus(work / f"corpus{rep_i}", seed, flags)
        times.append(time.perf_counter() - started)
    cfg = PipelineConfig.from_file(work / "corpus0" / "config.json")
    cfg = PipelineConfig.from_dict(cfg.echo() | wl.config | (TINY_CONFIG if tiny else {})
                                   | SERVING)
    return cfg, data, times


def prepare_timed(cfg, workdir: Path, data: dict):
    times, srv = [], None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        srv = prepare_server(cfg, workdir, data)
        times.append(time.perf_counter() - started)
    return srv, times


def run_untraced(args, wl: Workload, work: Path):
    cfg, data, setup_times = setup(work, args.seed, wl, args.tiny)
    builds = [build(cfg, work / f"build{b}") for b in range(wl.builds)]
    srv, prep_times = prepare_timed(cfg, work / "build0", data)
    served = serve(srv, MIN_CYCLES, args.seconds * wl.serve_share)
    checks, violations, summary = check_outputs(srv, served, [r for _t, r in builds],
                                                wl.brute_force)
    if wl.needs_i2i:
        guard_i2i(srv, summary)
    query_ms = [statistics.fmean(sorted(v)[:-1] if len(v) > 2 else v) * 1e3
                for v in served.latencies.values()]
    report = builds[0][1].metrics()
    metrics = {
        "setup_s": statistics.median(setup_times) + statistics.median(prep_times),
        "run_all_s": statistics.median(sum(t.values()) for t, _r in builds),
        "query_p50_ms": float(np.percentile(query_ms, 50)),
        "query_p99_ms": float(np.percentile(query_ms, 99)),
        "queries_per_s": served.count / served.wall,
        "recall_at_10": report["test_recall"]["10"],
        "expanded_recall": summary["expanded_recall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"phases": {"setup_corpus_s": setup_times, "setup_serving_s": prep_times,
                         "builds": [t for t, _r in builds], "serve_wall_s": served.wall},
              "query_samples": served.count, "distinct_queries": len(query_ms),
              "eval_metrics": report,
              "serving": summary}
    attempted = served.count + served.failed + len(builds)
    return srv, attempted, served.failed + violations, checks, metrics, record


def run_traced(args, wl: Workload, work: Path):
    """The same build and serving pass twice, untraced then traced, so the
    difference in wall time is the tracing overhead."""
    cfg, data, _setup_times = setup(work, args.seed, wl, args.tiny)
    walls, passes = [], []
    tracer = Tracer()
    for name, tr in (("plain", None), ("traced", tracer)):
        workdir = work / f"build-{name}"
        started = time.perf_counter()
        if tr is not None:
            install_trace_points(tr)
        try:
            stage_times, report = build(cfg, workdir, tr)
            with _span(tr, "serve.prepare"):
                srv = prepare_server(cfg, workdir, data)
            served = serve(srv, 1, tracer=tr)
        finally:
            tracer.restore()
        walls.append(time.perf_counter() - started)
        passes.append((stage_times, report, srv, served))
    stage_times = passes[0][0]
    _t, _r, srv, served = passes[1]
    checks, violations, summary = check_outputs(srv, served, [p[1] for p in passes],
                                                wl.brute_force)
    if wl.needs_i2i:
        guard_i2i(srv, summary)
    table = tracer.table()
    n_results = sum(len(beam) for beam in served.beams.values())
    values = layer_metrics(table, tracer.counts, served.count, n_results)
    depth, fanout = trie_shape(srv.trie)
    values |= {f"pipeline.{s}_s": t for s, t in stage_times.items()}
    values |= {"pipeline.artifact_bytes": dir_bytes(work / "build-plain"),
               "docid.depth": depth, "docid.max_fanout": fanout,
               "expansion.recall_num": summary["recall_num"],
               "expansion.mix_direct": summary["mix"]["direct"],
               "expansion.mix_cluster": summary["mix"]["cluster"],
               "expansion.mix_i2i": summary["mix"]["i2i"],
               "expansion.i2i_items": len(srv.i2i.neighbors),
               "trace.overhead_frac": walls[1] / walls[0] - 1.0}
    record = {"wall_s": walls[1], "self_s": self_times(table),
              "query_samples": served.count, "untraced_wall_s": walls[0],
              "serving": summary}
    failed = sum(p[3].failed for p in passes)
    attempted = sum(p[3].count for p in passes) + failed + len(passes)
    return srv, attempted, failed + violations, checks, values, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpus and epochs, for the smoke test")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    wl = WORKLOADS[args.workload]
    work = Path.cwd() / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        srv, attempted, failed, checks, metrics, record = runner(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()     # only once no other run is using it
    depth, fanout = trie_shape(srv.trie)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(),
              "inputs": {"items": srv.trie.n_items, "clicked_rows": len(srv.rows),
                         "trie_depth": depth, "trie_max_fanout": fanout,
                         "i2i_items": len(srv.i2i.neighbors)},
              "checks": checks} | record
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
