import base64
import contextlib
import dataclasses
import io
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from higen import cli
from higen import data as dt
from higen import decoder as dec
from higen import docid as di
from higen import expansion as ex
from higen import fusion as fu
from higen import nn
from higen import pipeline as pl
from higen import representation as rep
from higen.config import PipelineConfig, variant_parse
from higen.errors import ConfigError
from higen.evaluate import EvalReport
from higen.pipeline import run_ablation_study, run_kfold, run_pipeline


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = cli.main(["gen-synthetic", "--out", str(out), "--items", "60", "--categories", "6",
                   "--train-queries", "30", "--test-queries", "12", "--users", "5",
                   "--seed", "0"])
    assert rc == 0
    cfg_path = out / "config.json"
    cfg = json.loads(cfg_path.read_text())
    cfg.update(epochs_embed=10, epochs_metric=4, epochs_decoder=60)
    cfg_path.write_text(json.dumps(cfg))
    return out


@pytest.fixture(scope="module")
def ran(corpus):
    rc = cli.main(["run-all", "--config", str(corpus / "config.json")])
    assert rc == 0
    return corpus


class TestConfig:
    def test_desk_preset_validates(self):
        PipelineConfig.desk().validate()

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="learning rates"):
            PipelineConfig(lr_embed=0.0).validate()
        with pytest.raises(ConfigError, match="beam_width"):
            PipelineConfig(beam_width=2, topk=5).validate()
        with pytest.raises(ConfigError, match="docid_max_len"):
            PipelineConfig(docid_max_len=1).validate()

    def test_retired_semantic_len_key_loads(self):
        # config.json files written while the semantic prefix was a knob
        assert PipelineConfig.from_dict({"semantic_len": 1}) == PipelineConfig()

    def test_config_with_retired_options_at_their_constant_loads(self, tmp_path):
        # config.json files written while fusion normalization, the decoder
        # activation and the fold count were options carry them at the one
        # value in use
        p = tmp_path / "config.json"
        p.write_text(json.dumps(PipelineConfig.desk().echo() |
                                {"normalize_fusion": False, "dec_activation": "tanh",
                                 "kfold": 0}))
        assert PipelineConfig.from_file(p) == PipelineConfig.desk()

    def test_every_field_is_read_by_a_stage(self):
        read = {name for stage in pl.STAGES for name in stage.cfg + stage.reads}
        unread = {f.name for f in dataclasses.fields(PipelineConfig)} - read - \
            {"workdir", "stages"}
        assert not unread, f"config fields that no stage reads: {sorted(unread)}"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_dict({"learning_rate": 0.1})

    def test_env_overrides(self):
        cfg = PipelineConfig()
        cfg.apply_env({"HIGEN_SEED": "42", "HIGEN_VARIANT": "cluster-3",
                       "HIGEN_EVAL_KS": "[1, 2]", "HIGEN_POSITION_AWARE": "false"})
        assert cfg.seed == 42
        assert cfg.variant == "cluster-3"
        assert cfg.eval_ks == (1, 2)
        assert cfg.position_aware is False

    def test_env_unknown_field(self):
        with pytest.raises(ConfigError, match="HIGEN_BOGUS"):
            PipelineConfig().apply_env({"HIGEN_BOGUS": "1"})

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            PipelineConfig.from_file(tmp_path / "nope.json")

    @pytest.mark.parametrize("d,error", [
        ({"lr_embed": 1, "eval_ks": [1, 2], "position_aware": False}, None),
        ({"seed": True}, "'seed' expects int"), ({"lr_embed": "0.1"}, "'lr_embed' expects float"),
        ({"position_aware": 1}, "'position_aware' expects bool"),
        ({"eval_ks": 5}, "'eval_ks' expects list"), ({"stages": ["embed", 2]}, "'stages'"),
    ])
    def test_field_types_checked(self, d, error):
        if error is None:
            cfg = PipelineConfig.from_dict(d)
            assert (cfg.lr_embed, cfg.eval_ks, cfg.position_aware) == (1, (1, 2), False)
        else:
            with pytest.raises(ConfigError, match=error):
                PipelineConfig.from_dict(d)

    def test_variant_parse(self):
        assert variant_parse("direct") == (None, False)
        assert variant_parse("i2i") == (None, True)
        assert variant_parse("cluster-2") == (2, False)
        assert variant_parse("cluster-3-i2i") == (3, True)
        for bad in ("cluster", "cluster-x", "cluster-0", "clusters-2", "both"):
            with pytest.raises(ConfigError):
                variant_parse(bad)


class TestRunPipeline:
    def test_report_fields_populated(self, ran):
        report = EvalReport.load(ran / "work" / "report.json")
        assert set(report.recall) == {1, 5, 10}
        assert report.recall_num > 0
        assert report.expanded_recall is not None
        assert report.test_recall is not None
        assert report.zero_shot_recall is not None
        assert report.zero_shot_removed_fraction is not None
        assert report.config["seed"] == 0
        assert report.recall[10] >= report.recall[1]

    def test_rerun_skips_all_stages(self, ran):
        cfg = PipelineConfig.from_file(ran / "config.json")
        report = run_pipeline(cfg)
        assert set(report.skipped_stages) == {"embed", "metric", "docids", "decoder", "eval"}

    def test_ablation_flag_labeled_in_report(self, ran, tmp_path):
        cfg = PipelineConfig.from_file(ran / "config.json")
        cfg.workdir = str(tmp_path / "ablate")
        cfg.position_aware = False
        report = run_pipeline(cfg)
        baseline = EvalReport.load(ran / "work" / "report.json")
        assert report.config["position_aware"] is False
        assert baseline.config["position_aware"] is True
        # upstream stages are reused only when inputs match; here the workdir
        # is fresh so everything runs, producing a complete report
        assert set(report.recall) == {1, 5, 10}

    @pytest.mark.parametrize("flags,revisits", [([], False),
                                                (["--train-queries", "1000", "--users", "10"], True)])
    def test_report_records_the_i2i_table_size(self, tmp_path, capsys, flags, revisits):
        # no item pair of the default desk corpus has two clicking users, so its
        # I2I variant serves from an empty table; users of the revisit corpus share pairs
        assert cli.main(["gen-synthetic", "--out", str(tmp_path), *flags]) == 0
        cfg = json.loads((tmp_path / "config.json").read_text())
        cfg.update(epochs_embed=1, epochs_metric=1, epochs_decoder=1, variant="cluster-2-i2i")
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert cli.main(["run-all", "--config", str(tmp_path / "config.json")]) == 0
        report = EvalReport.load(tmp_path / "work" / "report.json")
        table = ex.I2ITable.load(tmp_path / "work" / "i2i.jsonl")
        assert report.i2i_items == len(table.neighbors)
        assert (report.i2i_items > 0) == revisits
        assert "i2i_items" not in report.metrics()
        assert f"i2i_items: {report.i2i_items}\n" in capsys.readouterr().out

    def test_stage_subcommands_resume_from_artifacts(self, corpus, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = json.loads((corpus / "config.json").read_text())
        cfg["workdir"] = str(tmp_path / "stagewise")
        cfg_path.write_text(json.dumps(cfg))
        for command in ("train-embed", "train-metric", "build-docids", "train-decoder",
                        "eval"):
            assert cli.main([command, "--config", str(cfg_path)]) == 0
        report = EvalReport.load(tmp_path / "stagewise" / "report.json")
        assert report.recall[1] > 0.5

    def test_stage_subcommands_follow_the_table(self):
        parser = cli.build_parser()
        for stage in pl.STAGES:
            args = parser.parse_args([stage.command, "--config", "cfg.json"])
            assert args.func is cli.cmd_stage and args.stage == stage.name
        assert [stage.name for stage in pl.STAGES] == list(PipelineConfig().stages)

    def test_kfold_returns_per_k_means(self, corpus, tmp_path):
        cfg = PipelineConfig.from_file(corpus / "config.json")
        cfg.workdir = str(tmp_path / "kfold")
        cfg.epochs_decoder = 40
        got = run_kfold(cfg, 2)
        assert set(got) == {1, 5, 10}
        assert all(0.0 <= v <= 1.0 for v in got.values())

    def test_ablation_study_means(self, corpus, tmp_path, monkeypatch):
        cfg = PipelineConfig.from_file(corpus / "config.json")
        cfg.workdir = str(tmp_path / "study")
        reports = []

        def recording(config):
            reports.append(run_pipeline(config))
            return reports[-1]

        monkeypatch.setattr(pl, "run_pipeline", recording)
        result = run_ablation_study(cfg, seeds=[0], k=10)
        monkeypatch.undo()
        assert set(result["mean"]) == {"full", "no_position_aware_loss",
                                       "no_category_clustering"}
        assert all(0.0 <= v <= 1.0 for v in result["mean"].values())
        # the variants share a workdir: each rebuilds only the stages it changes,
        # and ends where a run of its own in a fresh workdir ends
        assert [r.skipped_stages for r in reports] == \
            [[], ["embed", "metric", "docids"], ["embed", "metric"]]
        for name, report in zip(("position_aware", "category_clustering"), reports[1:]):
            fresh = run_pipeline(PipelineConfig.from_dict(cfg.echo() | {
                name: False, "seed": 0, "workdir": str(tmp_path / name)}))
            assert report.metrics() == fresh.metrics()


def drop_param(doc, name):
    del doc["params"][name]
    return doc


def overflow_param(doc, name):
    values = dt.f8_array(doc["params"][name]["f8"])
    values[0] = np.inf      # a payload that decodes to inf
    doc["params"][name]["f8"] = base64.b64encode(values.tobytes()).decode("ascii")
    return doc


def decimal_params(doc):
    """The same checkpoint in the version-1 layout: decimal lists under "data"."""
    for rec in doc["params"].values():
        rec["data"] = dt.f8_array(rec.pop("f8")).tolist()
    return doc | {"version": 1}


def shrink_param(doc, name):
    first = dt.f8_array(doc["params"][name]["f8"])[:1]
    doc["params"][name] = {"shape": [1], "f8": dt.f8_text(first)}
    return doc


@pytest.fixture
def finished(ran, tmp_path):
    """A copy of the finished run's workdir and a config that points at it."""
    shutil.copytree(ran / "work", tmp_path / "work")
    cfg = PipelineConfig.from_file(ran / "config.json")
    cfg.workdir = str(tmp_path / "work")
    return cfg


class TestStageCache:
    def test_beam_width_reruns_only_eval(self, finished):
        finished.beam_width = 12
        report = run_pipeline(finished)
        assert report.skipped_stages == ["embed", "metric", "docids", "decoder"]
        assert EvalReport.load(f"{finished.workdir}/report.json").config["beam_width"] == 12

    def test_deleted_artifact_is_rebuilt(self, finished, tmp_path):
        ckpt = tmp_path / "work" / "fusion.ckpt.json"
        before = ckpt.read_bytes()
        ckpt.unlink()
        report = run_pipeline(finished)
        # the retrain is deterministic, so nothing downstream changes
        assert report.skipped_stages == ["embed", "docids", "decoder", "eval"]
        assert ckpt.read_bytes() == before

    def test_failed_stage_keeps_old_artifacts(self, finished, tmp_path, monkeypatch):
        work = tmp_path / "work"
        before = (work / "fusion.jsonl").read_bytes()

        def partial_write(path, table):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"item_id": ')
            raise OSError("disk full")

        monkeypatch.setattr(fu, "write_fusion_jsonl", partial_write)
        broken = PipelineConfig.from_dict(finished.echo() | {"epochs_metric": 1,
                                                            "stages": ["metric"]})
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(broken)
        assert (work / "fusion.jsonl").read_bytes() == before
        assert not (work / "metric.hash").exists()
        assert not any(p.name.startswith(".") for p in work.iterdir())   # scratch removed
        monkeypatch.undo()
        report = run_pipeline(finished)
        assert report.skipped_stages == ["embed", "docids", "decoder", "eval"]

    def test_each_stage_reads_exactly_what_it_keys(self, corpus, tmp_path, monkeypatch):
        # a keyed field the stage never reads re-runs it on an edit that
        # cannot change its output; an unkeyed one is missing from its namespace
        namespaces = []

        class Recording:
            def __init__(self, **fields):
                self._fields, self._read = fields, set()
                namespaces.append(self)

            def __getattr__(self, name):
                if name not in self._fields:
                    raise AttributeError(name)
                self._read.add(name)
                return self._fields[name]

        monkeypatch.setattr(pl, "SimpleNamespace", Recording)
        cfg = PipelineConfig.from_file(corpus / "config.json")
        cfg.workdir = str(tmp_path / "w")
        cfg.epochs_embed, cfg.epochs_metric, cfg.epochs_decoder = 1, 1, 1
        run_pipeline(cfg)
        assert len(namespaces) == len(pl.STAGES)
        for stage, ns in zip(pl.STAGES, namespaces):
            keyed = set(stage.cfg) | {r for r in stage.reads if r.endswith("_path")}
            assert ns._read == keyed, f"{stage.name} never reads {sorted(keyed - ns._read)}"

    def test_gather_reads_exactly_the_tables(self, corpus, tmp_path, monkeypatch):
        # Adam updates a Table by row and the rest whole: a gathered parameter that is
        # no Table would go dense, and a Table gather never reads may be a matmul weight
        gathered, fits = set(), []

        def recording_gather(table, idx):
            gathered.add(id(table))
            return gather(table, idx)

        def one_batch(params, n, batch_loss, **_kw):
            gathered.clear()
            batch_loss(np.arange(min(n, 8)))
            fits.append(({k for k, p in params.items() if id(p) in gathered},
                         {k for k, p in params.items() if isinstance(p, nn.Table)}))
            return []

        gather = nn.gather
        monkeypatch.setattr(nn, "gather", recording_gather)
        monkeypatch.setattr(nn, "fit", one_batch)
        cfg = PipelineConfig.from_file(corpus / "config.json")
        cfg.workdir = str(tmp_path / "w")
        run_pipeline(cfg)
        assert len(fits) == 3 and fits[0][1] and fits[2][1]     # embedding, metric, decoder
        for read, tables in fits:
            assert read == tables

    def test_source_change_reruns_every_stage(self, finished, monkeypatch):
        monkeypatch.setattr(pl, "SOURCE_HASH", "edited")
        assert run_pipeline(finished).skipped_stages == []

    def test_unknown_stage_name_is_config_error(self, finished):
        finished.stages = ("embed", "train")
        with pytest.raises(ConfigError, match="train"):
            run_pipeline(finished)


class TestDecodeExpandCli:
    def test_decode_contract(self, ran, tmp_path):
        work = ran / "work"
        inp = tmp_path / "queries.jsonl"
        train_line = (ran / "train.jsonl").read_text().splitlines()[0]
        row = json.loads(train_line)
        inp.write_text(json.dumps({"user_id": row["user_id"], "query": row["query"],
                                   "context": row["context"]}) + "\n")
        outp = tmp_path / "decoded.jsonl"
        rc = cli.main(["decode", "--index", str(work / "index.json"),
                       "--checkpoint", str(work / "decoder.ckpt.json"),
                       "--beam", "8", "--topk", "5",
                       "--input", str(inp), "--output", str(outp)])
        assert rc == 0
        rec = json.loads(outp.read_text().splitlines()[0])
        assert rec["query"] == row["query"]
        assert 1 <= len(rec["results"]) <= 5
        first = rec["results"][0]
        assert set(first) == {"docid", "item_id", "logprob"}
        assert first["logprob"] <= 0.0
        assert "-" in first["docid"]
        assert first["item_id"] == row["target_item_id"]  # memorized training query

    def test_dash_output_streams_to_stdout(self, ran, tmp_path, capsys):
        work = ran / "work"
        inp = tmp_path / "queries.jsonl"
        inp.write_text("".join(json.dumps({"query": f"c10{i} w{i}"}) + "\n" for i in range(3)))
        args = ["decode", "--index", str(work / "index.json"),
                "--checkpoint", str(work / "decoder.ckpt.json"), "--input", str(inp)]
        assert cli.main(args + ["--output", str(tmp_path / "out.jsonl")]) == 0
        capsys.readouterr()
        assert cli.main(args + ["--output", "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "out.jsonl").read_text()
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("variant", ["direct", "cluster-2", "cluster-2-i2i"])
    def test_expand_contract(self, ran, tmp_path, variant):
        work = ran / "work"
        inp = tmp_path / f"queries-{variant}.jsonl"
        row = json.loads((ran / "train.jsonl").read_text().splitlines()[0])
        inp.write_text(json.dumps({"user_id": row["user_id"], "query": row["query"],
                                   "context": row["context"]}) + "\n")
        decoded = tmp_path / f"decoded-{variant}.jsonl"
        assert cli.main(["decode", "--index", str(work / "index.json"),
                         "--checkpoint", str(work / "decoder.ckpt.json"),
                         "--input", str(inp), "--output", str(decoded)]) == 0
        outp = tmp_path / f"expanded-{variant}.jsonl"
        argv = ["expand", "--index", str(work / "index.json"), "--variant", variant,
                "--cap", "50", "--input", str(decoded), "--output", str(outp)]
        if variant.endswith("i2i"):
            argv += ["--i2i", str(work / "i2i.jsonl")]
        assert cli.main(argv) == 0
        rec = json.loads(outp.read_text().splitlines()[0])
        assert rec["recall_num"] == len(rec["items"]) <= 50
        sources = {e["source"] for e in rec["items"]}
        assert "direct" in sources
        if variant.startswith("cluster"):
            assert rec["recall_num"] >= 10  # expansion grew the set

    def test_i2i_variant_requires_table(self, ran, tmp_path):
        work = ran / "work"
        rc = cli.main(["expand", "--index", str(work / "index.json"), "--variant", "i2i",
                       "--input", str(tmp_path / "whatever.jsonl")])
        assert rc == cli.EXIT_CONFIG


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path):
        assert cli.main(["run-all", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key_is_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"bogus_field": 1}')
        assert cli.main(["run-all", "--config", str(p)]) == 2

    def test_missing_data_is_3(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(PipelineConfig.desk(
            catalog_path=str(tmp_path / "nope.jsonl"), train_path=str(tmp_path / "no.jsonl"),
            workdir=str(tmp_path / "w")).echo()))
        assert cli.main(["run-all", "--config", str(p)]) == 3

    @pytest.mark.parametrize("source", ["config", "env"])
    def test_ill_typed_config_value_is_2(self, corpus, tmp_path, capsys, monkeypatch, source):
        cfg = json.loads((corpus / "config.json").read_text())
        if source == "config":
            cfg["beam_width"] = "abc"
        else:
            monkeypatch.setenv("HIGEN_TOPK", '"x"')
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg | {"workdir": str(tmp_path / "w")}))
        assert cli.main(["run-all", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert ("'beam_width'" if source == "config" else "'topk'") in err

    @pytest.mark.parametrize("key,value", [("normalize_fusion", True),
                                           ("dec_activation", "relu"), ("kfold", 3)])
    def test_retired_option_off_its_constant_is_2(self, corpus, tmp_path, capsys, key, value):
        cfg = json.loads((corpus / "config.json").read_text())
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg | {key: value, "workdir": str(tmp_path / "w")}))
        assert cli.main(["run-all", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"'{key}'" in err
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("env,value,field", [
        ("HIGEN_DEC_MODEL", "0", "dec_model"), ("HIGEN_QUERY_LEN", "0", "query_len"),
        ("HIGEN_CONTEXT_LEN", "0", "context_len"), ("HIGEN_SEM_LEN", "0", "sem_len"),
        ("HIGEN_FUSION_HIDDEN", "[0]", "fusion_hidden"),
        ("HIGEN_DEC_HIDDEN", "[0]", "dec_hidden"), ("HIGEN_EMBED_HIDDEN", "[0]", "embed_hidden"),
        ("HIGEN_DEC_EMB", "0", "dec_emb"), ("HIGEN_I2I_TOP_N", "-1", "i2i_top_n"),
        ("HIGEN_EVAL_KS", "[]", "eval_ks"), ("HIGEN_EVAL_KS", "[1, 10, 50]", "topk"),
    ])
    def test_size_below_one_is_2(self, corpus, tmp_path, capsys, monkeypatch, env, value,
                                 field):
        monkeypatch.setenv(env, value)
        rc = cli.main(["run-all", "--config", str(corpus / "config.json"),
                       "--workdir", str(tmp_path / "w")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert field in err

    def test_corrupt_index_is_3(self, ran, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text((ran / "work" / "index.json").read_text()[:50])
        rc = cli.main(["decode", "--index", str(bad),
                       "--checkpoint", str(ran / "work" / "decoder.ckpt.json"),
                       "--input", str(tmp_path / "unused.jsonl")])
        assert rc == cli.EXIT_DATA

    @pytest.mark.parametrize("flag,edit,named", [
        ("--index", lambda doc: {"version": 1}, "'docids'"),
        ("--checkpoint", lambda doc: {"version": 1, "extra": {}}, "'params'"),
        ("--checkpoint", lambda doc: drop_param(doc, "head0.b"), "['head0.b'] are missing"),
        ("--checkpoint", lambda doc: shrink_param(doc, "head0.b"), "'head0.b' has shape [1]"),
        ("--checkpoint", lambda doc: overflow_param(doc, "head0.b"), "'head0.b'"),
        ("--checkpoint", decimal_params, "version 1 is too old; re-run its stage"),
    ])
    def test_bad_index_or_checkpoint_is_3(self, ran, tmp_path, capsys, flag, edit, named):
        work = ran / "work"
        paths = {"--index": work / "index.json", "--checkpoint": work / "decoder.ckpt.json"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(paths[flag].read_text()))))
        paths[flag] = bad
        rc = cli.main(["decode", "--index", str(paths["--index"]),
                       "--checkpoint", str(paths["--checkpoint"]),
                       "--input", str(tmp_path / "unused.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert str(bad) in err and named in err

    def test_catalog_line_missing_field_is_3(self, corpus, tmp_path, capsys):
        bad_catalog = tmp_path / "catalog.jsonl"
        bad_catalog.write_text((corpus / "catalog.jsonl").read_text() + '{"item_id": "x"}\n')
        cfg = json.loads((corpus / "config.json").read_text())
        cfg.update(catalog_path=str(bad_catalog), workdir=str(tmp_path / "w"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["run-all", "--config", str(p)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "line 61" in err and "category_path" in err

    @pytest.mark.parametrize("line", ['{"user_id": "u0"}', '{"query": ', '["q"]',
                                      '{"query": "q", "context": 5}',
                                      '{"query": "x", "context": [["a"]]}',
                                      '{"query": "x", "context": [{"a": 1}]}',
                                      '{"query": "x", "context": "ab"}',
                                      # decoded as the query "None" and exited 0
                                      '{"query": null}', '{"query": 5}',
                                      '{"query": "x", "user_id": null}',
                                      '{"query": "x", "user_id": 3}'])
    def test_malformed_decode_input_is_3(self, ran, tmp_path, capsys, line):
        inp = tmp_path / "queries.jsonl"
        inp.write_text(json.dumps({"query": "c101 w0"}) + "\n" + line + "\n")
        rc = cli.main(["decode", "--index", str(ran / "work" / "index.json"),
                       "--checkpoint", str(ran / "work" / "decoder.ckpt.json"),
                       "--input", str(inp), "--output", str(tmp_path / "out.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{inp} line 2" in err

    @pytest.mark.parametrize("beam,topk", [("0", "2"), ("2", "0"), ("1", "2")])
    def test_bad_beam_or_topk_on_empty_input_is_2(self, ran, tmp_path, capsys, beam, topk):
        # checked only per row, so an empty input exited 0
        inp = tmp_path / "queries.jsonl"
        inp.write_text("")
        rc = cli.main(["decode", "--index", str(ran / "work" / "index.json"),
                       "--checkpoint", str(ran / "work" / "decoder.ckpt.json"),
                       "--beam", beam, "--topk", topk, "--input", str(inp),
                       "--output", str(tmp_path / "out.jsonl")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1 and "beam_width" in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("rec", [{"query": "q"}, {"results": [{"logprob": -1.0}]},
                                     {"results": 3}, {"results": [{"docid": "999-999"}]},
                                     {"results": [{"docid": "1-x"}]}])
    def test_malformed_expand_input_is_3(self, ran, tmp_path, capsys, rec):
        inp = tmp_path / "decoded.jsonl"
        inp.write_text(json.dumps(rec) + "\n")
        rc = cli.main(["expand", "--index", str(ran / "work" / "index.json"),
                       "--input", str(inp), "--output", str(tmp_path / "out.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{inp} line 1" in err

    def test_expand_of_a_docid_prefix_is_3(self, ran, tmp_path, capsys):
        index = json.loads((ran / "work" / "index.json").read_text())
        prefix = "-".join(map(str, index["docids"]["it0000"]["tokens"][:-1]))
        inp = tmp_path / "decoded.jsonl"
        inp.write_text(json.dumps({"results": [{"docid": prefix}]}) + "\n")
        rc = cli.main(["expand", "--index", str(ran / "work" / "index.json"),
                       "--input", str(inp), "--output", str(tmp_path / "out.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"{inp} line 1" in err and f"docid {prefix!r} not present in the index" in err

    def test_logprob_no_float_holds_is_3(self, ran, tmp_path, capsys):
        # ended in an OverflowError traceback
        index = json.loads((ran / "work" / "index.json").read_text())
        docid = "-".join(map(str, index["docids"]["it0000"]["tokens"]))
        inp = tmp_path / "decoded.jsonl"
        inp.write_text('{"results": [{"docid": "%s", "logprob": 1%s}]}\n' % (docid, "0" * 400))
        rc = cli.main(["expand", "--index", str(ran / "work" / "index.json"),
                       "--input", str(inp), "--output", str(tmp_path / "out.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"{inp} line 1: OverflowError" in err

    @pytest.mark.parametrize("logprob", ['"nan"', '"inf"', '"-Infinity"', "1e999"])
    def test_non_finite_logprob_is_3(self, ran, tmp_path, capsys, logprob):
        # "nan" was accepted and written out as the invalid JSON `"score": NaN`
        index = json.loads((ran / "work" / "index.json").read_text())
        docid = "-".join(map(str, index["docids"]["it0000"]["tokens"]))
        inp, out = tmp_path / "decoded.jsonl", tmp_path / "out.jsonl"
        inp.write_text('{"results": [{"docid": "%s", "logprob": %s}]}\n' % (docid, logprob))
        rc = cli.main(["expand", "--index", str(ran / "work" / "index.json"),
                       "--input", str(inp), "--output", str(out)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"{inp} line 1" in err and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["x", "", "0,,1"])
    def test_bad_ablation_seeds_is_2(self, corpus, tmp_path, capsys, seeds):
        # ended in a ValueError traceback
        rc = cli.main(["ablation", "--config", str(corpus / "config.json"),
                       "--workdir", str(tmp_path / "w"), "--seeds", seeds])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1 and "--seeds" in err

    @pytest.mark.parametrize("argv", [["run-all", "--seed", "-1"], ["ablation", "--seeds", "-1"],
                                      ["ablation", "--seeds", "0,-1"]])
    def test_negative_seed_is_2(self, corpus, tmp_path, capsys, argv):
        # ended in numpy's "expected non-negative integer" traceback; "0,-1"
        # trained all of seed 0 first
        rc = cli.main([argv[0], "--config", str(corpus / "config.json"),
                       "--workdir", str(tmp_path / "w"), *argv[1:]])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1 and "seed must be >= 0" in err
        assert not (tmp_path / "w").exists()

    def test_ablation_k_outside_eval_ks_is_2(self, corpus, tmp_path, capsys):
        # reported mean recall@20 = 0.0000 for every variant and exited 0
        rc = cli.main(["ablation", "--config", str(corpus / "config.json"),
                       "--workdir", str(tmp_path / "w"), "--k", "20"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--k 20" in err and "eval_ks" in err
        assert not (tmp_path / "w").exists()

    def test_malformed_oracle_line_is_3(self, ran, finished, tmp_path, capsys):
        bad_oracle = tmp_path / "oracle.jsonl"
        lines = (ran / "oracle.jsonl").read_text().splitlines()
        bad_oracle.write_text("\n".join(lines + ['{"a": 101}']) + "\n")
        cfg = finished.echo() | {"oracle_path": str(bad_oracle)}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train-decoder", "--config", str(p)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"line {len(lines) + 1}" in err and "'b'" in err

    def test_malformed_i2i_table_is_3(self, ran, tmp_path, capsys):
        table = tmp_path / "i2i.jsonl"
        table.write_text(json.dumps({"item_id": "it0001"}) + "\n")
        rc = cli.main(["expand", "--index", str(ran / "work" / "index.json"),
                       "--variant", "i2i", "--i2i", str(table),
                       "--input", str(tmp_path / "unused.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{table} line 1" in err and "neighbors" in err

    def test_missing_decode_input_is_3(self, ran, tmp_path, capsys):
        rc = cli.main(["decode", "--index", str(ran / "work" / "index.json"),
                       "--checkpoint", str(ran / "work" / "decoder.ckpt.json"),
                       "--input", str(tmp_path / "nope.jsonl")])
        assert rc == cli.EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command,first_line", [("decode", None), ("expand", None),
                                                    ("decode", '{"query": "c101 w0"}')])
    def test_failed_run_keeps_existing_output(self, ran, tmp_path, capsys, command, first_line):
        work = ran / "work"
        out = tmp_path / "res.jsonl"
        out.write_text('{"query": "an earlier run", "results": []}\n')
        before = out.read_bytes()
        inp = tmp_path / "nope.jsonl"
        if first_line is not None:       # one good line, then a malformed one
            inp = tmp_path / "queries.jsonl"
            inp.write_text(first_line + '\n["q"]\n')
        ckpt = ["--checkpoint", str(work / "decoder.ckpt.json")] if command == "decode" else []
        rc = cli.main([command, "--index", str(work / "index.json"), *ckpt,
                       "--input", str(inp), "--output", str(out)])
        assert rc == cli.EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_bytes() == before
        assert not (tmp_path / "res.jsonl.tmp").exists()

    def test_non_utf8_training_file_is_3(self, corpus, tmp_path, capsys):
        bad = tmp_path / "train.jsonl"
        bad.write_bytes(b"\xff\xfe\n")
        cfg = json.loads((corpus / "config.json").read_text())
        cfg.update(train_path=str(bad), workdir=str(tmp_path / "w"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train-embed", "--config", str(p)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert "1/1 malformed rows" in err and str(bad) in err

    @pytest.mark.parametrize("argv,env", [(["--kfold", "1"], {}), (["--kfold", "-1"], {}),
                                          ([], {"HIGEN_KFOLD": "3"})])
    def test_bad_fold_count_is_2(self, corpus, tmp_path, capsys, monkeypatch, argv, env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        rc = cli.main(["run-all", "--config", str(corpus / "config.json"),
                       "--workdir", str(tmp_path / "w"), *argv])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert "kfold" in err.lower()
        assert not (tmp_path / "w").exists()      # before any stage runs

    def test_context_that_is_not_strings_is_skipped_in_training(self, corpus, tmp_path,
                                                                 capsys):
        train = tmp_path / "train.jsonl"
        rows = (corpus / "train.jsonl").read_text().splitlines()
        bad = json.loads(rows[0]) | {"context": [["it0001"]]}
        train.write_text("\n".join(rows + [json.dumps(bad)]) + "\n")
        cfg = json.loads((corpus / "config.json").read_text())
        cfg.update(train_path=str(train), workdir=str(tmp_path / "w"), epochs_embed=1)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train-embed", "--config", str(p)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_index_without_node_scores_is_3(self, finished, tmp_path, capsys):
        index = tmp_path / "work" / "index.json"
        doc = json.loads(index.read_text())
        doc["node_scores"] = {}
        index.write_text(json.dumps(doc))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(finished.echo()))
        assert cli.main(["train-decoder", "--config", str(p)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"{index}: no node score for docID prefix " in err   # e.g. 101-0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_is_4(self, corpus, tmp_path):
        catalog = (corpus / "catalog.jsonl").read_text().splitlines()
        rec = json.loads(catalog[0])
        rec["efficiency"] = [1e308, 1e308]
        poisoned = [json.dumps(rec)] + catalog[1:]
        bad_catalog = tmp_path / "catalog.jsonl"
        bad_catalog.write_text("\n".join(poisoned) + "\n")
        cfg = json.loads((corpus / "config.json").read_text())
        cfg.update(catalog_path=str(bad_catalog), workdir=str(tmp_path / "w"),
                   lr_embed=1e280, epochs_embed=3)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["run-all", "--config", str(p)]) == 4


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6)
# docID texts near the 60-item index: category tokens 101-106, small cluster
# tokens and ordinals, sometimes with whitespace or junk around them
DOCID_TEXTS = st.builds(
    lambda tokens, end: "-".join(map(str, tokens)) + end,
    st.lists(st.sampled_from([0, 1, 2, 3, 101, 102, 106]), min_size=1, max_size=4),
    st.sampled_from(["", " ", "\n", "-", "x"]))


def strict_float(text):
    value = float(text)
    assert math.isfinite(value), f"number {text} has no finite float"
    return value


def reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def json_line(strategy):
    return strategy.map(lambda value: json.dumps(value).encode())


DECODE_LINES = st.one_of(st.binary(max_size=30), json_line(JSON_VALUES), json_line(
    st.fixed_dictionaries({"query": st.text(max_size=10) | JSON_VALUES}, optional={
        "user_id": JSON_VALUES,
        "context": st.lists(st.text(max_size=6) | JSON_VALUES, max_size=3) | JSON_VALUES})))
EXPAND_LINES = st.one_of(st.binary(max_size=30), json_line(JSON_VALUES), json_line(
    st.fixed_dictionaries({"results": st.lists(st.fixed_dictionaries(
        {"docid": DOCID_TEXTS | JSON_VALUES}, optional={"logprob": JSON_VALUES}),
        max_size=3) | JSON_VALUES}, optional={"query": JSON_VALUES})))
FUZZ = settings(max_examples=25, derandomize=True, deadline=None, database=None)


class TestCliFuzz:
    """Arbitrary JSON values and raw bytes as --input lines: the run ends
    with exit 0 or 3, at most one line on stderr and no traceback; a failed
    run leaves an existing --output as it was, and a finished one writes
    strict JSON lines holding only finite numbers."""

    @staticmethod
    def check(argv, lines, tmp):
        inp, out = tmp / "in.jsonl", tmp / "out.jsonl"
        inp.write_bytes(b"\n".join(lines) + b"\n")
        out.write_bytes(b"an earlier run\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--input", str(inp), "--output", str(out)])
        assert rc in (0, cli.EXIT_DATA), err.getvalue()
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
        if rc != 0:
            assert out.read_bytes() == b"an earlier run\n"
        else:
            for line in out.read_text().splitlines():
                json.loads(line, parse_constant=reject_constant, parse_float=strict_float)

    @FUZZ
    @given(lines=st.lists(DECODE_LINES, min_size=1, max_size=3))
    @example(lines=[b'{"query": "x", "context": [["a"]]}'])   # unhashable context entries
    @example(lines=[b'{"query": "x", "context": [{"a": 1}]}'])
    @example(lines=[b'{"query": null}'])    # was decoded as the query "None"
    def test_decode(self, ran, tmp_path_factory, lines):
        work = ran / "work"
        self.check(["decode", "--index", str(work / "index.json"),
                    "--checkpoint", str(work / "decoder.ckpt.json")],
                   lines, tmp_path_factory.mktemp("decode"))

    @FUZZ
    @given(lines=st.lists(EXPAND_LINES, min_size=1, max_size=3),
           variant=st.sampled_from(["direct", "cluster-2", "cluster-2-i2i"]))
    # a docID text with a newline made a two-line message
    @example(lines=[b'{"results": [{"docid": "101\\n"}]}'], variant="direct")
    # non-finite logprobs made `"score": NaN` lines; 101-1-0 is it0000's docID
    @example(lines=[b'{"results": [{"docid": "101-1-0", "logprob": "nan"}]}'], variant="direct")
    @example(lines=[b'{"results": [{"docid": "101-1-0", "logprob": "inf"}]}'],
             variant="cluster-2")
    @example(lines=[b'{"results": [{"docid": "101-1-0", "logprob": 1e999}]}'],
             variant="cluster-2-i2i")
    def test_expand(self, ran, tmp_path_factory, lines, variant):
        work = ran / "work"
        self.check(["expand", "--index", str(work / "index.json"), "--variant", variant,
                    "--i2i", str(work / "i2i.jsonl")],
                   lines, tmp_path_factory.mktemp("expand"))


class TestCheckpointCompat:
    @pytest.mark.parametrize("name,load,key,kept", [
        ("fusion.ckpt.json", fu.FusionModel.load, "normalize", False),
        ("decoder.ckpt.json", dec.DecoderModel.load, "activation", "tanh")])
    def test_retired_option_at_its_constant_loads(self, ran, tmp_path, name, load, key, kept):
        # checkpoints written while the option existed hold its one value in use
        payload = json.loads((ran / "work" / name).read_text())
        payload["extra"]["config"][key] = kept
        old = tmp_path / name
        old.write_text(json.dumps(payload))
        model, fresh = load(old), load(ran / "work" / name)
        assert key not in model.config.__dict__
        for (ka, ta), (kb, tb) in zip(model.params().items(), fresh.params().items()):
            assert ka == kb and np.array_equal(ta.data, tb.data)

    def test_decoder_checkpoint_with_relu_is_3(self, ran, tmp_path, capsys):
        work = ran / "work"
        payload = json.loads((work / "decoder.ckpt.json").read_text())
        payload["extra"]["config"]["activation"] = "relu"
        bad = tmp_path / "decoder.ckpt.json"
        bad.write_text(json.dumps(payload))
        rc = cli.main(["decode", "--index", str(work / "index.json"), "--checkpoint", str(bad),
                       "--input", str(tmp_path / "unused.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert str(bad) in err and "'activation'" in err

    @pytest.mark.parametrize("name,load", [("embed.ckpt.json", rep.TwoTowerModel.load),
                                           ("fusion.ckpt.json", fu.FusionModel.load),
                                           ("decoder.ckpt.json", dec.DecoderModel.load)])
    def test_retired_loss_window_key_loads(self, ran, tmp_path, name, load):
        # checkpoints written before the loss-trend window became a constant
        # carry it in their config
        payload = json.loads((ran / "work" / name).read_text())
        payload["extra"]["config"]["loss_window"] = 5
        old = tmp_path / name
        old.write_text(json.dumps(payload))
        model, fresh = load(old), load(ran / "work" / name)
        assert "loss_window" not in model.config.__dict__
        for (ka, ta), (kb, tb) in zip(model.params().items(), fresh.params().items()):
            assert ka == kb and np.array_equal(ta.data, tb.data)

    @pytest.fixture
    def reindexed(self, finished, tmp_path):
        """work2: a copy of the finished run whose index was rebuilt with
        another seed and k, next to the decoder trained on the first index."""
        shutil.copytree(tmp_path / "work", tmp_path / "work2")
        cfg = PipelineConfig.from_dict(finished.echo() | {
            "workdir": str(tmp_path / "work2"), "seed": 7, "kmeans_k": 3})
        cfg.stages = ("docids",)
        run_pipeline(cfg)
        assert di.load_index(tmp_path / "work2" / "index.json")[0] != \
            di.load_index(tmp_path / "work" / "index.json")[0]
        return cfg

    def test_decoder_of_another_index_is_3(self, reindexed, tmp_path, capsys):
        index, ckpt = tmp_path / "work2" / "index.json", tmp_path / "work" / "decoder.ckpt.json"
        inp, out = tmp_path / "queries.jsonl", tmp_path / "out.jsonl"
        inp.write_text(json.dumps({"query": "c101 w0"}) + "\n")
        out.write_text("an earlier run\n")
        rc = cli.main(["decode", "--index", str(index), "--checkpoint", str(ckpt),
                       "--input", str(inp), "--output", str(out)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert str(index) in err and str(ckpt) in err and "re-run train-decoder" in err
        assert out.read_text() == "an earlier run\n"

    def test_eval_refuses_decoder_of_another_index(self, reindexed, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(reindexed.echo()))
        assert cli.main(["eval", "--config", str(p)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert str(tmp_path / "work2" / "decoder.ckpt.json") in err

    def test_checkpoint_without_docid_map_loads_but_does_not_decode(self, ran, tmp_path,
                                                                   capsys):
        # decoder checkpoints written before the record existed
        work = ran / "work"
        payload = json.loads((work / "decoder.ckpt.json").read_text())
        del payload["extra"]["pos_vocab"]["docid_map"]
        old = tmp_path / "decoder.ckpt.json"
        old.write_text(json.dumps(payload))
        model = dec.DecoderModel.load(old)
        fresh = dec.DecoderModel.load(work / "decoder.ckpt.json")
        for (ka, ta), (kb, tb) in zip(model.params().items(), fresh.params().items()):
            assert ka == kb and np.array_equal(ta.data, tb.data)
        rc = cli.main(["decode", "--index", str(work / "index.json"), "--checkpoint", str(old),
                       "--input", str(tmp_path / "unused.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert str(old) in err and "re-run train-decoder" in err
