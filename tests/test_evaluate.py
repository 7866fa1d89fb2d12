import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higen.errors import ConfigError
from higen.evaluate import EvalReport, recall_at_k, recall_curve


class TestRecallAtK:
    def test_truth_ranked_first_everywhere(self):
        preds = {f"q{i}": [f"t{i}", "x", "y"] for i in range(5)}
        truths = {f"q{i}": f"t{i}" for i in range(5)}
        assert recall_at_k(preds, truths, 1) == 1.0

    def test_truth_never_retrieved(self):
        preds = {"q0": ["a", "b"], "q1": ["c"]}
        truths = {"q0": "z", "q1": "z"}
        assert recall_at_k(preds, truths, 10) == 0.0

    def test_hits_at_ranks_1_5_12(self):
        def ranked(hit_rank):
            out = [f"f{j}" for j in range(15)]
            out[hit_rank - 1] = "truth"
            return out

        preds = {"a": ranked(1), "b": ranked(5), "c": ranked(12)}
        truths = {"a": "truth", "b": "truth", "c": "truth"}
        assert recall_at_k(preds, truths, 10) == pytest.approx(2.0 / 3.0)

    def test_multi_truth_counts_any_hit(self):
        preds = {"q": ["a", "b"]}
        truths = {"q": {"z", "b"}}
        assert recall_at_k(preds, truths, 2) == 1.0

    def test_missing_query_counts_as_miss(self):
        assert recall_at_k({}, {"q": "t"}, 3) == 0.0

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            recall_at_k({}, {"q": "t"}, 0)

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=8), st.integers(1, 25))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_k(self, hit_ranks, k):
        preds = {}
        truths = {}
        for i, rank in enumerate(hit_ranks):
            ranked = [f"f{i}-{j}" for j in range(30)]
            ranked[rank - 1] = f"t{i}"
            preds[f"q{i}"] = ranked
            truths[f"q{i}"] = f"t{i}"
        assert recall_at_k(preds, truths, k) <= recall_at_k(preds, truths, k + 1)


class TestEvalReport:
    def test_roundtrip(self, tmp_path):
        report = EvalReport(recall={1: 0.5, 10: 0.9}, recall_num=123.0,
                            expanded_recall=0.95, test_recall={1: 0.4},
                            zero_shot_recall={1: 0.2, 10: 0.6},
                            zero_shot_removed_fraction=0.65,
                            timings={"embed": 1.5}, skipped_stages=["metric"],
                            config={"seed": 3})
        path = tmp_path / "report.json"
        report.save(path)
        loaded = EvalReport.load(path)
        assert loaded.metrics() == report.metrics()
        assert loaded.config == report.config

    def test_report_without_i2i_items_loads(self, tmp_path):
        # reports written before the I2I table size was recorded
        path = tmp_path / "report.json"
        EvalReport(recall={1: 0.5}, i2i_items=7).save(path)
        doc = json.loads(path.read_text())
        assert doc["i2i_items"] == 7 and "i2i_items" not in EvalReport().metrics()
        del doc["i2i_items"]
        path.write_text(json.dumps(doc))
        assert EvalReport.load(path).i2i_items == 0

    def test_metrics_exclude_timings(self):
        a = EvalReport(recall={1: 0.5}, timings={"embed": 1.0})
        b = EvalReport(recall={1: 0.5}, timings={"embed": 9.0})
        assert a.metrics() == b.metrics()

    def test_summary_mentions_recall(self):
        report = EvalReport(recall={1: 0.25}, recall_num=10.0)
        assert "recall@1: 0.2500" in report.summary()

    def test_curve(self):
        preds = {"q": ["a", "b", "c"]}
        truths = {"q": "c"}
        assert recall_curve(preds, truths, (1, 3)) == {1: 0.0, 3: 1.0}
