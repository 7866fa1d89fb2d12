import json

import numpy as np
import pytest
from helpers import bad_f8_texts, save_tsv
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from higen import cli
from higen import data as dt
from higen import expansion as ex
from higen import fusion as fu
from higen import representation as rep
from higen.errors import DataError, NumericError
from higen.evaluate import EvalReport

# base64 of little-endian float64 values, the form of a vector in a JSONL table
HALF, ONE, NAN = "AAAAAAAA4D8=", "AAAAAAAA8D8=", "AAAAAAAA+H8="


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

    @pytest.mark.parametrize("schema,timestamp", [
        ("jsonl", '"nan"'), ("jsonl", '"inf"'), ("jsonl", "1e999"), ("jsonl", '"12"'),
        ("jsonl", "true"), ("tsv", "nan"), ("tsv", "inf"), ("tsv", "1e999")])
    def test_non_finite_or_non_number_timestamp_is_malformed(self, tmp_path, schema,
                                                             timestamp):
        # a NaN or infinite timestamp ended in page_view_key's ValueError or OverflowError
        rows = sample_rows(200)
        path = tmp_path / f"rows.{schema}"
        (save_tsv if schema == "tsv" else dt.save_dataset)(path, rows)
        lines = path.read_text().splitlines()
        if schema == "tsv":
            bad = lines[3].rsplit("\t", 1)[0] + "\t" + timestamp
        else:
            bad = json.dumps(json.loads(lines[3]) | {"timestamp": "@"}).replace('"@"', timestamp)
        write_lines(path, lines + [bad])
        result = dt.load_dataset(path, schema)
        assert result.malformed == 1 and result.rows == rows

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
        (fu.read_fusion_jsonl, f'{{"item_id": "i", "fusion": "{HALF}"}}',
         '{"item_id": "j", "fusion": "x"}'),
        (fu.read_fusion_jsonl, f'{{"item_id": "i", "fusion": "{HALF}"}}',
         f'{{"item_id": "j", "fusion": "{NAN}"}}'),
        (rep.read_atomic_jsonl, f'{{"item_id": "i", "semantic": "{ONE}", "common": "{ONE}", '
                                f'"efficient": "{ONE}"}}',
         f'{{"item_id": "j", "semantic": "{ONE}"}}'),
        (ex.I2ITable.load, '{"item_id": "i", "neighbors": [["j", 1.0]]}',
         '{"item_id": "j", "neighbors": [["i"]]}'),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, load, good, bad):
        path = tmp_path / "table.jsonl"
        write_lines(path, [good, "", bad])
        with pytest.raises(DataError, match=f"{path} line 3"):
            load(path)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bad=bad_f8_texts(), table=st.sampled_from(["fusion", "semantic", "efficient"]))
    def test_bad_vector_payload_names_file_and_line(self, tmp_path_factory, bad, table):
        path = tmp_path_factory.mktemp("table") / f"{table}.jsonl"
        if table == "fusion":
            load, lines = fu.read_fusion_jsonl, [f'{{"item_id": "i", "fusion": "{HALF}"}}',
                                                 json.dumps({"item_id": "j", "fusion": bad})]
        else:
            load = rep.read_atomic_jsonl
            lines = [json.dumps({"item_id": item_id} | {
                k: bad if (item_id, k) == ("j", table) else ONE
                for k in ("semantic", "common", "efficient")}) for item_id in "ij"]
        write_lines(path, lines)
        with pytest.raises(DataError, match=f"{path} line 2"):
            load(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ex.I2ITable.load(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("efficiency", [(0.5,), (), (0.1, 0.2, 0.3)])
    def test_catalog_efficiency_of_another_length_names_file_and_item(self, tmp_path,
                                                                      efficiency):
        # ended in numpy's "setting an array element with a sequence" at training
        path = tmp_path / "catalog.jsonl"
        items = [dt.Item(f"it{i}", (1,), ("a",), (0.1, 0.2), 0.5) for i in range(3)]
        items[1] = dt.Item("it1", (1,), ("a",), efficiency, 0.5)
        dt.save_catalog(path, items)
        with pytest.raises(DataError, match=f"{path}: item 'it1' has {len(efficiency)} "
                                            "efficiency values, item 'it0' 2"):
            dt.load_catalog(path)

    @pytest.mark.parametrize("field,text", [
        ("item_id", "5"), ("category_path", '"12"'), ("category_path", "[1, true]"),
        ("category_path", "[1.0]"), ("semantic_tokens", '"abc"'),
        ("semantic_tokens", '["a", 3]'), ("efficiency", '"34"'),
        ("efficiency", '["inf", 0.1]'), ("efficiency", "[1e999, 0.1]"),
        ("efficiency", "[null, 0.1]"), ("efficient_score", '"nan"'),
        ("efficient_score", "1e999"), ("efficient_score", "true")])
    def test_catalog_field_of_another_type_names_file_and_line(self, tmp_path, field, text):
        # once coerced: "12" loaded as the path (1, 2), "34" as the efficiency (3.0, 4.0),
        # and a "nan" score failed at the docids stage with exit 4
        path = tmp_path / "catalog.jsonl"
        good = {"item_id": "it0", "category_path": [1], "semantic_tokens": ["a"],
                "efficiency": [0.1, 0.2], "efficient_score": 0.5}
        bad = json.dumps(good | {"item_id": "it1", field: "@"}).replace('"@"', text)
        write_lines(path, [json.dumps(good), bad])
        with pytest.raises(DataError, match=f"{path} line 2: .*'{field}'"):
            dt.load_catalog(path)

    @pytest.mark.parametrize("line", ['{"a": 1.7, "b": 2, "similarity": 0.5}',
                                      '{"a": 1, "b": "102", "similarity": 0.5}',
                                      '{"a": true, "b": 2, "similarity": 0.5}',
                                      '{"a": 1, "b": 2, "similarity": true}',
                                      '{"a": 1, "b": 2, "similarity": "0.5"}',
                                      '{"a": 1, "b": 2, "similarity": 1e999}'])
    def test_oracle_field_of_another_type_names_file_and_line(self, tmp_path, line):
        # once coerced: "a": 1.7 read as category 1, "b": "102" as 102
        path = tmp_path / "oracle.jsonl"
        write_lines(path, ['{"a": 1, "b": 2, "similarity": 0.5}', line])
        with pytest.raises(DataError, match=f"{path} line 2"):
            dt.read_oracle_jsonl(path)

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


# any JSON value, put in place of one field by TestLoaderFuzz; HUGE is written as the
# literal 1e999, a number no float holds
HUGE = "\x00huge"
SCALARS = st.one_of(st.sampled_from(["nan", "12", "", "inf", "it0001", "a:b"]),
                    st.text(max_size=4), st.booleans(), st.none(), st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False), st.just(HUGE))
FIELD_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


@pytest.fixture(scope="module")
def corpus_lines(tmp_path_factory):
    """The lines of the 60-item corpus's catalog, training and oracle files."""
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["gen-synthetic", "--out", str(out), "--items", "60", "--categories", "6",
                     "--seed", "0"]) == 0
    return {name: (out / f"{name}.jsonl").read_text().splitlines()
            for name in ("catalog", "train", "oracle")}


def finite_float(x) -> bool:
    return type(x) is float and bool(np.isfinite(x))


class TestLoaderFuzz:
    """One field of one line of the 60-item corpus's files replaced by any JSON value.
    A load either keeps every value as written, of its declared type and finite, or
    raises a one-line DataError naming the file."""

    FUZZ = settings(max_examples=25, derandomize=True, database=None, deadline=None)

    @staticmethod
    def load_edited(tmp_path_factory, lines, line, field, value, load):
        """(records as written, edited line's index, load's result), or ([], index, None)
        when load raised its DataError."""
        i = line % len(lines)
        lines = list(lines)
        lines[i] = json.dumps(json.loads(lines[i]) | {field: value}).replace(json.dumps(HUGE),
                                                                            "1e999")
        path = tmp_path_factory.mktemp("fuzz") / "table.jsonl"
        write_lines(path, lines)
        try:
            result = load(path)
        except DataError as exc:
            assert str(path) in str(exc) and "\n" not in str(exc)
            return [], i, None
        return [json.loads(line) for line in lines], i, result

    @FUZZ
    @given(line=st.integers(0, 10_000), value=FIELD_VALUES, field=st.sampled_from(
        ["item_id", "category_path", "semantic_tokens", "efficiency", "efficient_score"]))
    @example(line=7, field="efficient_score", value="nan")
    def test_catalog(self, tmp_path_factory, corpus_lines, line, field, value):
        recs, _i, items = self.load_edited(tmp_path_factory, corpus_lines["catalog"], line,
                                           field, value, dt.load_catalog)
        for it, rec in zip(items or [], recs, strict=True):
            assert type(it.item_id) is str and it.item_id == rec["item_id"]
            assert all(type(c) is int for c in it.category_path)
            assert list(it.category_path) == rec["category_path"]
            assert all(type(t) is str for t in it.semantic_tokens)
            assert list(it.semantic_tokens) == rec["semantic_tokens"]
            assert all(map(finite_float, it.efficiency))
            assert list(it.efficiency) == rec["efficiency"]
            assert finite_float(it.efficient_score) and it.efficient_score == rec["efficient_score"]

    @FUZZ
    @given(line=st.integers(0, 10_000), value=FIELD_VALUES, field=st.sampled_from(
        ["user_id", "query", "context", "target_item_id", "relevance", "click", "timestamp"]))
    @example(line=3, field="timestamp", value="nan")
    def test_training_rows(self, tmp_path_factory, corpus_lines, line, field, value):
        recs, i, result = self.load_edited(tmp_path_factory, corpus_lines["train"], line,
                                           field, value, dt.load_dataset)
        assert result is not None and result.malformed <= 1
        del recs[i:i + result.malformed]
        for row, rec in zip(result.rows, recs, strict=True):
            for key in ("user_id", "query", "target_item_id"):
                assert type(getattr(row, key)) is str and getattr(row, key) == rec[key]
            assert all(type(part) is str for entry in row.context for part in entry)
            assert dt._context_to_raw(row.context) == rec["context"]
            assert (row.relevance, row.click) == (rec["relevance"], rec["click"])
            assert type(row.relevance) is int and type(row.click) is int
            assert finite_float(row.timestamp) and row.timestamp == rec["timestamp"]

    @FUZZ
    @given(line=st.integers(0, 10_000), value=FIELD_VALUES,
           field=st.sampled_from(["a", "b", "similarity"]))
    @example(line=0, field="a", value=101.5)
    def test_oracle(self, tmp_path_factory, corpus_lines, line, field, value):
        recs, _i, pairs = self.load_edited(tmp_path_factory, corpus_lines["oracle"], line,
                                           field, value, dt.read_oracle_jsonl)
        for (a, b, sim), rec in zip(pairs or [], recs, strict=True):
            assert type(a) is int and type(b) is int and finite_float(sim)
            assert (a, b, sim) == (rec["a"], rec["b"], rec["similarity"])


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestF8Payload:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                          max_side=4), elements=FINITE))
    @example(values=np.array([-0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                              np.finfo(float).max, -np.finfo(float).max]))
    @example(values=np.empty((0, 3)))
    @example(values=np.arange(24.0).reshape(2, 3, 4)[:, ::2].T)    # not C-contiguous
    def test_roundtrip_is_bit_exact(self, values):
        text = dt.f8_text(values)
        got = dt.f8_array(text)
        assert got.dtype == np.float64 and got.ndim == 1 and got.flags.writeable
        assert got.tobytes() == np.ascontiguousarray(values).tobytes()
        assert json.loads(dt._ENCODE({"v": values}))["v"] == text

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(values=st.lists(FINITE, max_size=5), data=st.data())
    def test_non_finite_value_refused_on_write(self, values, data):
        at = data.draw(st.integers(0, len(values)))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="non-finite"):
            dt.f8_text(np.insert(np.array(values), at, bad))

    def test_non_array_is_not_json(self, tmp_path):
        with pytest.raises(TypeError, match="float32"):
            dt.write_jsonl(tmp_path / "t.jsonl", [{"a": np.float32(1.0)}])


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
