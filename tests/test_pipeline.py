import base64
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import higen
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
from higen.errors import CheckpointError, ConfigError
from higen.evaluate import EvalReport
from higen.pipeline import run_ablation_study, run_pipeline


# prints cli.main's exit code and OpenBLAS's thread count before and after it
BLAS_PROBE = """
import ctypes, glob, os, sys
import numpy as np
from higen import cli

def threads():
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None

before = threads()
code = cli.main(["gen-synthetic", "--out", sys.argv[1], "--items", "12", "--categories", "2"])
print(code, before, threads())
"""


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


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """The 60-item corpus with one epoch per trainer."""
    out = tmp_path_factory.mktemp("quick")
    assert cli.main(["gen-synthetic", "--out", str(out), "--items", "60", "--categories", "6",
                     "--seed", "0"]) == 0
    cfg = json.loads((out / "config.json").read_text())
    cfg.update(epochs_embed=1, epochs_metric=1, epochs_decoder=1)
    (out / "config.json").write_text(json.dumps(cfg))
    return out


def quick_config(quick, tmp_path, **fields):
    """A config file for the quick corpus, its workdir tmp_path / "work"."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(json.loads((quick / "config.json").read_text()) |
                               {"workdir": str(tmp_path / "work")} | fields))
    return path


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

    @staticmethod
    def assert_run_all_is_2(tmp_path, capsys, config: dict, keys) -> None:
        p = tmp_path / "config.json"
        p.write_text(json.dumps(PipelineConfig.desk(workdir=str(tmp_path / "w")).echo() |
                                config))
        assert cli.main(["run-all", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert all(key in err for key in keys), err
        assert not (tmp_path / "w").exists()

    def test_retired_semantic_len_key_is_2(self, tmp_path, capsys, monkeypatch):
        # config.json files written while the semantic prefix was a knob
        self.assert_run_all_is_2(tmp_path, capsys, {"semantic_len": 1}, ["'semantic_len'"])
        monkeypatch.setenv("HIGEN_SEMANTIC_LEN", "1")
        self.assert_run_all_is_2(tmp_path, capsys, {}, ["HIGEN_SEMANTIC_LEN"])

    def test_config_with_retired_options_is_2(self, tmp_path, capsys):
        # config.json files written while fusion normalization, the decoder
        # activation and the fold count were options, even at the one value
        # that was in use
        retired = {"normalize_fusion": False, "dec_activation": "tanh", "kfold": 0}
        self.assert_run_all_is_2(tmp_path, capsys, retired, [f"'{key}'" for key in retired])

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
        ({"tau": float("inf")}, "'tau' expects finite float"),
        ({"margin": float("nan")}, "'margin' expects finite float"),
        ({"i2i_alpha": 10 ** 400}, "'i2i_alpha' expects finite float"),
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
        out = capsys.readouterr().out
        assert f"i2i_items: {report.i2i_items}\n" in out
        # the desk corpus warns that its I2I variant has nothing to serve
        assert bool(report.warnings) != revisits
        assert all(f"warning: {w}\n" in out for w in report.warnings)
        assert set(report.recall_source_mix) == {"direct", "cluster", "i2i"}
        assert sum(report.recall_source_mix.values()) == pytest.approx(1.0)
        assert (report.recall_source_mix["i2i"] > 0) == revisits
        assert "recall source mix: direct " in out
        assert not {"warnings", "recall_source_mix"} & set(report.metrics())

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


class TestQuickCorpusCli:
    """CLI paths on the 60-item corpus trained one epoch per trainer."""

    def test_ablation_writes_every_variant(self, quick, tmp_path, capsys):
        path = quick_config(quick, tmp_path)
        assert cli.main(["ablation", "--config", str(path), "--seeds", "0", "--k", "10"]) == 0
        variants = ["full", "no_category_clustering", "no_position_aware_loss"]
        result = json.loads((tmp_path / "work" / "ablation.json").read_text())
        assert sorted(result["mean"]) == variants
        lines = [line for line in capsys.readouterr().out.splitlines() if "mean recall@10" in line]
        assert sorted(line.split(":")[0] for line in lines) == variants

    def test_unset_test_and_oracle_paths(self, quick, tmp_path):
        path = quick_config(quick, tmp_path, test_path="", oracle_path="")
        assert cli.main(["run-all", "--config", str(path)]) == 0
        assert json.loads((tmp_path / "work" / "report.json").read_text())["test_recall"] is None
        report = run_pipeline(PipelineConfig.from_file(path))
        assert set(report.skipped_stages) == {"embed", "metric", "docids", "decoder", "eval"}

    def test_nested_category_paths_are_3(self, quick, tmp_path, capsys):
        # (101,)'s docIDs 101-3-... met (101, 3)'s: the docids stage wrote an
        # index that the decoder stage could not load
        records = [json.loads(line) for line in (quick / "catalog.jsonl").read_text().splitlines()]
        for rec in records:
            if rec["category_path"] == [102]:
                rec["category_path"] = [101, 3]
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        path = quick_config(quick, tmp_path, catalog_path=str(catalog))
        assert cli.main(["run-all", "--config", str(path)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert "category path (101,) is a prefix of category path (101, 3)" in err
        assert not (tmp_path / "work" / "index.json").exists()
        path = quick_config(quick, tmp_path, catalog_path=str(catalog),
                            category_clustering=False)
        assert cli.main(["run-all", "--config", str(path)]) == 0


class TestBlasThreads:
    @pytest.mark.parametrize("env_threads", [None, "2"])
    def test_main_runs_openblas_on_one_thread_unless_the_user_set_a_count(self, tmp_path,
                                                                         env_threads):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(higen.__file__).parent.parent), env.get("PYTHONPATH", "")])
        if env_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = env_threads
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE, str(tmp_path / "corpus")],
                              env=env, capture_output=True, text=True, timeout=120)
        code, before, after = done.stdout.split()[-3:]
        if before == "None":
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert code == "0"
        assert int(after) == (1 if env_threads is None else int(before))


class TestJsonConstants:
    """NaN, Infinity and -Infinity are not JSON: every reader refuses them with
    exit 3 and one line naming the file, and the line for JSONL."""

    CONSTANTS = ["NaN", "Infinity", "-Infinity"]

    @staticmethod
    def assert_refused(argv, named, constant, capsys):
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert named in err and f"non-finite number {constant}" in err

    @pytest.mark.parametrize("constant", CONSTANTS)
    def test_in_the_index(self, ran, tmp_path, capsys, constant):
        doc = json.loads((ran / "work" / "index.json").read_text())
        next(iter(doc["docids"].values()))["score"] = "PLACEHOLDER"
        bad = tmp_path / "index.json"
        bad.write_text(json.dumps(doc).replace('"PLACEHOLDER"', constant))
        self.assert_refused(["expand", "--index", str(bad),
                             "--input", str(tmp_path / "unused.jsonl")], str(bad), constant, capsys)

    @pytest.mark.parametrize("constant", CONSTANTS)
    @pytest.mark.parametrize("command", ["decode", "expand", "i2i"])
    def test_in_a_jsonl_line(self, ran, tmp_path, capsys, command, constant):
        work = ran / "work"
        inp, table = tmp_path / "in.jsonl", tmp_path / "i2i.jsonl"
        inp.write_text('{"results": [{"docid": "101-1-0", "logprob": %s}]}\n' % constant)
        argv = ["expand", "--index", str(work / "index.json"), "--input", str(inp),
                "--output", str(tmp_path / "out.jsonl")]
        named = f"{inp} line 1"
        if command == "decode":
            inp.write_text('{"query": "q", "context": [%s]}\n' % constant)
            argv = ["decode", "--index", str(work / "index.json"),
                    "--checkpoint", str(work / "decoder.ckpt.json"), *argv[3:]]
        elif command == "i2i":
            table.write_text('{"item_id": "it0001", "neighbors": [["it0002", %s]]}\n' % constant)
            argv += ["--variant", "i2i", "--i2i", str(table)]
            named = f"{table} line 1"
        self.assert_refused(argv, named, constant, capsys)


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

    @pytest.mark.parametrize("source", ["config", "env", "config-nonfinite", "env-nonfinite"])
    def test_ill_typed_config_value_is_2(self, corpus, tmp_path, capsys, monkeypatch, source):
        # 1e999 in a file parses to inf, and an env value Infinity to inf: a learning rate
        # or tau of inf once exited 4 mid-training
        field, text = {"config": ("beam_width", '"abc"'), "env": ("topk", '"x"'),
                       "config-nonfinite": ("tau", "1e999"),
                       "env-nonfinite": ("lr_embed", "Infinity")}[source]
        cfg = json.loads((corpus / "config.json").read_text()) | {"workdir": str(tmp_path / "w")}
        if source.startswith("config"):
            cfg[field] = "@"
        else:
            monkeypatch.setenv(f"HIGEN_{field.upper()}", text)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg).replace('"@"', text))
        assert cli.main(["run-all", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"'{field}'" in err
        assert not (tmp_path / "w").exists()

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

    @pytest.mark.parametrize("efficiency", [[0.5], []])
    def test_catalog_efficiency_of_another_length_is_3(self, corpus, tmp_path, capsys,
                                                       efficiency):
        # ended in numpy's ValueError traceback, 27 stderr lines
        lines = (corpus / "catalog.jsonl").read_text().splitlines()
        bad_catalog = tmp_path / "catalog.jsonl"
        lines[7] = json.dumps(json.loads(lines[7]) | {"efficiency": efficiency})
        bad_catalog.write_text("\n".join(lines) + "\n")
        cfg = json.loads((corpus / "config.json").read_text())
        cfg.update(catalog_path=str(bad_catalog), workdir=str(tmp_path / "w"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["run-all", "--config", str(p)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert str(bad_catalog) in err and "item 'it0007'" in err

    def test_non_finite_efficient_score_is_3_before_training(self, corpus, tmp_path, capsys):
        # once trained embed and metric, then exited 4 writing the docID index
        lines = (corpus / "catalog.jsonl").read_text().splitlines()
        bad_catalog = tmp_path / "catalog.jsonl"
        lines[7] = json.dumps(json.loads(lines[7]) | {"efficient_score": "nan"})
        bad_catalog.write_text("\n".join(lines) + "\n")
        cfg = json.loads((corpus / "config.json").read_text())
        cfg.update(catalog_path=str(bad_catalog), workdir=str(tmp_path / "w"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train-embed", "--config", str(p)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"{bad_catalog} line 8" in err and "'efficient_score'" in err
        assert not list((tmp_path / "w").glob("*.ckpt.json"))

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

    @pytest.mark.parametrize("seeds", ["x", "", "0,,1", "0,x"])
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

    @pytest.mark.parametrize("argv,named", [
        # removed flags: the fold count, two copies of config fields, and
        # ablation's --seed, which each seed of --seeds replaced
        (["run-all", "--kfold", "2"], "unrecognized arguments: --kfold 2"),
        (["run-all", "--no-position-aware-loss"],
         "unrecognized arguments: --no-position-aware-loss"),
        (["ablation", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["run-all", "--bogus"], "unrecognized arguments: --bogus"),
        (["decode", "--index", "index.json"],
         "higen decode: the following arguments are required: --checkpoint"),
        (["gen-synthetic", "--items", "abc"],
         "higen gen-synthetic: argument --items: invalid int value: 'abc'"),
    ])
    def test_usage_error_is_one_line_2(self, corpus, tmp_path, capsys, argv, named):
        # argparse printed a usage block of 3-7 lines
        work = tmp_path / "w"
        where = {"gen-synthetic": ["--out", str(work)], "decode": []}.get(
            argv[0], ["--config", str(corpus / "config.json"), "--workdir", str(work)])
        assert cli.main([*argv, *where]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith("config error: ") and named in err
        assert not work.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--users", "0"), ("--users", "-2"), ("--train-queries", "0"),
        ("--train-queries", "-1"), ("--test-queries", "-1"), ("--overlap", "2"),
        ("--overlap", "-1"), ("--overlap", "nan"),
    ])
    def test_gen_synthetic_flag_out_of_range_is_2(self, tmp_path, capsys, flag, value):
        # --users 0 and --train-queries 0 ended in a ZeroDivisionError traceback,
        # --train-queries -1 wrote 499 train queries, and the rest exited 0
        work = tmp_path / "w"
        assert cli.main(["gen-synthetic", "--out", str(work), flag, value]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith("config error: ") and f"{flag} must be" in err
        assert not work.exists()

    def test_gen_synthetic_fewer_items_than_categories_is_3(self, tmp_path, capsys):
        work = tmp_path / "w"
        rc = cli.main(["gen-synthetic", "--out", str(work), "--items", "5", "--categories", "6"])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "one item per category" in err
        assert not work.exists()

    def test_help_keeps_the_usage_block(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run-all", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: higen run-all") and "--config CONFIG" in out

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

    def test_version_1_index_is_3(self, finished, tmp_path, capsys):
        # version 1 kept a score per docID prefix under "node_scores", none per item
        index = tmp_path / "work" / "index.json"
        doc = json.loads(index.read_text())
        for rec in doc["docids"].values():
            del rec["score"]
        index.write_text(json.dumps(doc | {"version": 1, "node_scores": {}}))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(finished.echo()))
        assert cli.main(["train-decoder", "--config", str(p)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"{index}: version 1 is too old; re-run build-docids" in err

    @pytest.mark.parametrize("field,value", [
        ("docids", {}),
        # semantic_len 99 decoded with exit 0; -5 was reported as a missing node score
        ("semantic_len", 99), ("semantic_len", -5), ("semantic_len", 1.0),
        ("semantic_len", True), ("semantic_len", None),
        # a string token ended in "TypeError: '<' not supported"
        ("tokens", []), ("tokens", [101, "0", 1]), ("tokens", [101, True, 1]),
        ("tokens", [101, 0.0, 1]), ("tokens", "101-0-1"),
        ("score", "0.5"), ("score", True), ("score", None), ("score", [0.5]),
        # a record that is no object ended in "AttributeError: 'list' object has no attribute"
        ("record", [1, 2]),
    ])
    @pytest.mark.parametrize("command", ["decode", "expand"])
    def test_malformed_index_is_3(self, ran, tmp_path, capsys, command, field, value):
        # an empty index made `expand --variant cluster-2` exit 2 on the prefix length
        work = ran / "work"
        doc = json.loads((work / "index.json").read_text())
        item = next(iter(doc["docids"]))
        if field == "docids":
            doc["docids"] = value
            named = "no docIDs"
        else:
            if field == "record":
                doc["docids"][item] = value
            else:
                doc["docids"][item][field] = value
            named = f"item {item!r} needs int tokens, a semantic_len in [0, len(tokens)) and " \
                    f"a number score, not {doc['docids'][item]}"
        bad = tmp_path / "index.json"
        bad.write_text(json.dumps(doc))
        argv = {"decode": ["decode", "--checkpoint", str(work / "decoder.ckpt.json")],
                "expand": ["expand", "--variant", "cluster-2"]}[command]
        assert cli.main([*argv, "--index", str(bad),
                         "--input", str(tmp_path / "unused.jsonl")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"{bad}: {named}" in err
        if field not in ("docids", "record"):
            assert f"{field!r}: {value!r}" in err

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
    @staticmethod
    def assert_refused(load, path, named: str) -> None:
        # a CheckpointError is a DataError: the CLI exits 3 with its one line
        with pytest.raises(CheckpointError) as exc:
            load(path)
        assert "\n" not in str(exc.value)
        assert str(path) in str(exc.value) and named in str(exc.value)

    @pytest.mark.parametrize("name,load,key,kept", [
        ("fusion.ckpt.json", fu.FusionModel.load, "normalize", False),
        ("decoder.ckpt.json", dec.DecoderModel.load, "activation", "tanh")],
        ids=["fusion", "decoder"])
    def test_retired_option_at_its_constant_is_3(self, ran, tmp_path, name, load, key, kept):
        # checkpoints written while the option existed hold its one value in use
        payload = json.loads((ran / "work" / name).read_text())
        payload["extra"]["config"][key] = kept
        old = tmp_path / name
        old.write_text(json.dumps(payload))
        self.assert_refused(load, old, f"'{key}'")

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
                                           ("decoder.ckpt.json", dec.DecoderModel.load)],
                             ids=["embed", "fusion", "decoder"])
    def test_retired_loss_window_key_is_3(self, ran, tmp_path, name, load):
        # checkpoints written before the loss-trend window became a constant
        # carry it in their config
        payload = json.loads((ran / "work" / name).read_text())
        payload["extra"]["config"]["loss_window"] = 5
        old = tmp_path / name
        old.write_text(json.dumps(payload))
        self.assert_refused(load, old, "'loss_window'")

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

    def test_checkpoint_without_docid_map_is_3(self, ran, tmp_path, capsys):
        # decoder checkpoints written before the record existed
        work = ran / "work"
        payload = json.loads((work / "decoder.ckpt.json").read_text())
        del payload["extra"]["pos_vocab"]["docid_map"]
        old = tmp_path / "decoder.ckpt.json"
        old.write_text(json.dumps(payload))
        self.assert_refused(dec.DecoderModel.load, old, "'docid_map'")
        rc = cli.main(["decode", "--index", str(work / "index.json"), "--checkpoint", str(old),
                       "--input", str(tmp_path / "unused.jsonl")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert str(old) in err and "'docid_map'" in err
