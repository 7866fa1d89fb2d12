import json

import numpy as np
import pytest
from helpers import save_tsv

from higen import data as dt
from higen import expansion as ex
from higen import fusion as fu
from higen import representation as rep
from higen.errors import DataError, NumericError
from higen.evaluate import EvalReport


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def sample_rows(n=10):
    return [dt.DatasetRow(f"u{i % 3}", f"tok{i} q", ((f"it{i:02d}", "click"),
                                                     (f"it{(i + 1) % n:02d}", "pay")),
                          f"it{i:02d}", 1, i % 2, 100.0 * i) for i in range(n)]


class TestLoadDataset:
    def test_empty_file_gives_zero_rows(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("")
        result = dt.load_dataset(path)
        assert result.rows == [] and result.page_views == []

    def test_non_binary_label_rejected_and_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        good = ('{"user_id": "u", "query": "q", "context": [], "target_item_id": "i", '
                '"relevance": 1, "click": 1, "timestamp": 0}')
        rows = [good] * 200
        rows.append(good.replace('"click": 1', '"click": 2'))
        write_lines(path, rows)
        result = dt.load_dataset(path)
        assert result.malformed == 1
        assert len(result.rows) == 200

    def test_malformed_over_one_percent_aborts(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        good = ('{"user_id": "u", "query": "q", "context": [], "target_item_id": "i", '
                '"relevance": 1, "click": 1, "timestamp": 0}')
        write_lines(path, [good] * 50 + ["{not json}"])
        with pytest.raises(DataError, match="1%"):
            dt.load_dataset(path)

    def test_non_utf8_row_counts_against_the_budget(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        good = ('{"user_id": "u", "query": "q", "context": [], "target_item_id": "i", '
                '"relevance": 1, "click": 1, "timestamp": 0}\n').encode()
        path.write_bytes(good * 200 + b"\xff\xfe\n")
        result = dt.load_dataset(path)
        assert result.malformed == 1 and len(result.rows) == 200
        path.write_bytes(good * 50 + b"\xff\xfe\n")
        with pytest.raises(DataError, match="1%"):
            dt.load_dataset(path)

    @pytest.mark.parametrize("edit", [{"context": [["it0001"]]}, {"context": [{"a": 1}]},
                                      {"context": "ab"}, {"timestamp": 10 ** 400}])
    def test_row_with_a_bad_field_is_malformed(self, tmp_path, edit):
        # a context that is not a list of strings, or a number no float holds
        path = tmp_path / "rows.jsonl"
        good = {"user_id": "u", "query": "q", "context": ["i:pay"], "target_item_id": "i",
                "relevance": 1, "click": 1, "timestamp": 0}
        write_lines(path, [json.dumps(good)] * 200 + [json.dumps(good | edit)])
        result = dt.load_dataset(path)
        assert result.malformed == 1 and len(result.rows) == 200
        assert result.rows[0].context == (("i", "pay"),)

    @pytest.mark.parametrize("field", ["user_id", "query", "target_item_id"])
    @pytest.mark.parametrize("value", [None, ["q"], 7, 1.5, {"a": "b"}])
    def test_non_string_identity_field_is_malformed(self, tmp_path, field, value):
        # once read as str(value): a null query trained as the text "None"
        path = tmp_path / "rows.jsonl"
        good = {"user_id": "u", "query": "q", "context": [], "target_item_id": "i",
                "relevance": 1, "click": 1, "timestamp": 0}
        write_lines(path, [json.dumps(good)] * 200 + [json.dumps(good | {field: value})])
        result = dt.load_dataset(path)
        assert result.malformed == 1 and len(result.rows) == 200
        assert {getattr(r, field) for r in result.rows} == {good[field]}
        write_lines(path, [json.dumps(good)] * 50 + [json.dumps(good | {field: value})])
        with pytest.raises(DataError, match="1%"):
            dt.load_dataset(path)

    @pytest.mark.parametrize("schema", ["jsonl", "tsv"])
    def test_hundred_row_roundtrip(self, tmp_path, schema):
        rows = sample_rows(100)
        path = tmp_path / f"rows.{schema}"
        (save_tsv if schema == "tsv" else dt.save_dataset)(path, rows)
        result = dt.load_dataset(path, schema)
        assert result.rows == rows

    def test_unknown_target_item_listed(self, tmp_path):
        rows = sample_rows(3)
        path = tmp_path / "rows.jsonl"
        dt.save_dataset(path, rows)
        catalog = [dt.Item("it00", (1,), ("a",), (0.1,), 0.5)]
        with pytest.raises(DataError, match="it01"):
            dt.load_dataset(path, catalog=catalog)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            dt.load_dataset(tmp_path / "nope.jsonl")

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(DataError):
            dt.load_dataset(tmp_path / "x", schema="csv")


class TestPageViews:
    def test_grouped_by_user_query_bucket(self):
        rows = [
            dt.DatasetRow("u1", "q", (), "a", 1, 1, 0.0),
            dt.DatasetRow("u1", "q", (), "b", 1, 0, 10.0),
            dt.DatasetRow("u1", "q", (), "c", 0, 0, 700.0),   # next bucket
            dt.DatasetRow("u2", "q", (), "d", 1, 1, 0.0),     # other user
        ]
        pvs = dt.group_page_views(rows)
        assert len(pvs) == 3
        first = pvs[0]
        assert first.entries == (("a", 1), ("b", 0))

    def test_entries_keep_row_order(self):
        rows = [dt.DatasetRow("u", "q", (), f"i{j}", 1, j % 2, 1.0) for j in range(4)]
        pvs = dt.group_page_views(rows)
        assert [e[0] for e in pvs[0].entries] == ["i0", "i1", "i2", "i3"]


class TestZeroShotSplit:
    def test_disjoint_removes_nothing(self):
        train = sample_rows(5)
        test = [dt.DatasetRow("u", "new query", (), "x", 1, 1, 0.0)]
        retained, removed = dt.zero_shot_split(train, test)
        assert retained == test and removed == 0.0

    def test_subset_removes_everything(self):
        train = sample_rows(5)
        retained, removed = dt.zero_shot_split(train, train[:3])
        assert retained == [] and removed == 1.0

    def test_constructed_65_percent_overlap_exact(self):
        train = sample_rows(200)
        test = train[:130] + [dt.DatasetRow("u", f"fresh {i}", (), "x", 1, 1, 0.0)
                              for i in range(70)]
        retained, removed = dt.zero_shot_split(train, test)
        assert removed == 0.65
        assert len(retained) == 70

    def test_idempotent(self):
        train = sample_rows(50)
        test = train[:20] + [dt.DatasetRow("u", f"fresh {i}", (), "x", 1, 1, 0.0)
                             for i in range(30)]
        once, _ = dt.zero_shot_split(train, test)
        twice, removed_again = dt.zero_shot_split(train, once)
        assert twice == once and removed_again == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError):
            dt.zero_shot_split([], sample_rows(1))
        with pytest.raises(DataError):
            dt.zero_shot_split(sample_rows(1), [])


class TestArtifactLoaders:
    @pytest.mark.parametrize("load,good,bad", [
        (dt.read_oracle_jsonl, '{"a": 1, "b": 2, "similarity": 0.5}', '{"a": 101}'),
        (fu.read_fusion_jsonl, '{"item_id": "i", "fusion": [0.5]}',
         '{"item_id": "j", "fusion": "x"}'),
        (fu.read_fusion_jsonl, '{"item_id": "i", "fusion": [0.5]}',
         '{"item_id": "j", "fusion": [NaN]}'),
        (rep.read_atomic_jsonl, '{"item_id": "i", "semantic": [1], "common": [1], '
                                '"efficient": [1]}', '{"item_id": "j", "semantic": [1]}'),
        (ex.I2ITable.load, '{"item_id": "i", "neighbors": [["j", 1.0]]}',
         '{"item_id": "j", "neighbors": [["i"]]}'),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, load, good, bad):
        path = tmp_path / "table.jsonl"
        write_lines(path, [good, "", bad])
        with pytest.raises(DataError, match=f"{path} line 3"):
            load(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ex.I2ITable.load(tmp_path / "nope.jsonl")

    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        path.write_bytes(b'{"a": 1, "b": 2, "similarity": 0.5}\n\xff\xfe\n')
        with pytest.raises(DataError, match="oracle.jsonl: 'utf-8' codec"):
            dt.read_oracle_jsonl(path)

    @pytest.mark.parametrize("text", ['{"recall": {}}', '{"recall": {"x": 1}, '
                                      '"recall_num": 1}', '[1]', '{"recall": '])
    def test_malformed_report_is_data_error(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(DataError, match="report.json"):
            EvalReport.load(path)


class TestWriters:
    @pytest.mark.parametrize("fault", ["raise", "nan"])
    def test_failed_write_keeps_old_file(self, tmp_path, fault):
        path = tmp_path / "table.jsonl"
        dt.write_jsonl(path, [{"a": 1}])
        before = path.read_bytes()

        def records():
            yield {"a": 2}
            if fault == "raise":
                raise OSError("disk full")
            yield {"a": float("nan")}

        with pytest.raises(OSError if fault == "raise" else NumericError,
                           match="disk full" if fault == "raise" else str(path)):
            dt.write_jsonl(path, records())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["table.jsonl"]


    def test_package_error_from_the_chunks_passes_through(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("old\n")

        def lines():
            yield "new\n"
            raise DataError("bad input line 2")

        with pytest.raises(DataError, match="line 2"):
            dt.write_text(path, lines())
        assert path.read_text() == "old\n"


class TestSynthetic:
    def test_deterministic(self):
        a = dt.generate_synthetic(n_items=40, n_categories=4, n_train_queries=20,
                                  n_test_queries=10, seed=3)
        b = dt.generate_synthetic(n_items=40, n_categories=4, n_train_queries=20,
                                  n_test_queries=10, seed=3)
        assert a.catalog == b.catalog
        assert a.train_rows == b.train_rows
        assert a.test_rows == b.test_rows

    def test_structure(self):
        c = dt.generate_synthetic(n_items=40, n_categories=4, n_train_queries=20,
                                  n_test_queries=10, seed=0)
        ids = {it.item_id for it in c.catalog}
        assert len(ids) == 40
        for row in c.train_rows + c.test_rows:
            assert row.target_item_id in ids
            assert row.relevance in (0, 1) and row.click in (0, 1)
        clicked = [r for r in c.train_rows if r.click == 1]
        assert len(clicked) == 20
        # every PV carries both label classes, so triplets are mineable
        pvs = dt.group_page_views(c.train_rows)
        assert all({y for _i, y in pv.entries} == {0, 1} for pv in pvs)

    def test_catalog_roundtrip(self, tmp_path):
        c = dt.generate_synthetic(n_items=12, n_categories=3, n_train_queries=6,
                                  n_test_queries=3, seed=1)
        path = tmp_path / "catalog.jsonl"
        dt.save_catalog(path, c.catalog)
        assert dt.load_catalog(path) == c.catalog

    def test_oracle_roundtrip(self, tmp_path):
        c = dt.generate_synthetic(n_items=12, n_categories=6, n_train_queries=6,
                                  n_test_queries=3, seed=1)
        path = tmp_path / "oracle.jsonl"
        dt.write_oracle_jsonl(path, c.oracle_pairs)
        assert dt.read_oracle_jsonl(path) == c.oracle_pairs

    def test_duplicate_catalog_ids_rejected(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        item = dt.Item("dup", (1,), ("a",), (0.1,), 0.5)
        dt.save_catalog(path, [item, item])
        with pytest.raises(DataError, match="duplicate"):
            dt.load_catalog(path)
