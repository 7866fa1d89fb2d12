import json

import numpy as np
import pytest

from higen import cli
from higen import decoder as dec
from higen import fusion as fu
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
            PipelineConfig(docid_max_len=2, semantic_len=2).validate()

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

    def test_kfold_returns_per_k_means(self, corpus, tmp_path):
        cfg = PipelineConfig.from_file(corpus / "config.json")
        cfg.workdir = str(tmp_path / "kfold")
        cfg.kfold = 2
        cfg.epochs_decoder = 40
        got = run_kfold(cfg)
        assert set(got) == {1, 5, 10}
        assert all(0.0 <= v <= 1.0 for v in got.values())

    def test_ablation_study_means(self, corpus, tmp_path):
        cfg = PipelineConfig.from_file(corpus / "config.json")
        cfg.workdir = str(tmp_path / "study")
        result = run_ablation_study(cfg, seeds=[0], k=10)
        assert set(result["mean"]) == {"full", "no_position_aware_loss",
                                       "no_category_clustering"}
        assert all(0.0 <= v <= 1.0 for v in result["mean"].values())


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

    def test_corrupt_index_is_3(self, ran, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text((ran / "work" / "index.json").read_text()[:50])
        rc = cli.main(["decode", "--index", str(bad),
                       "--checkpoint", str(ran / "work" / "decoder.ckpt.json"),
                       "--input", str(tmp_path / "unused.jsonl")])
        assert rc == cli.EXIT_DATA

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
                                      '{"query": "q", "context": 5}'])
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

    def test_missing_decode_input_is_3(self, ran, tmp_path, capsys):
        rc = cli.main(["decode", "--index", str(ran / "work" / "index.json"),
                       "--checkpoint", str(ran / "work" / "decoder.ckpt.json"),
                       "--input", str(tmp_path / "nope.jsonl")])
        assert rc == cli.EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

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


class TestCheckpointCompat:
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
