import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import dataset, flow_meter
from flowsieve.dataset import (CLASS_NAMES, MAX_CELLS, Dataset, Scaler,
                               SplitSpec, SyntheticSpec, apply_scaler,
                               default_synthetic_spec,
                               fit_scaler, generate_synthetic, load_flow_csv,
                               one_hot, stratified_split,
                               stratified_split_indices, write_csv)
from flowsieve.errors import DataError
from flowsieve.flow_meter import FEATURE_COLUMNS, c_parse, parse_ipv4
from oracles import masked_transform, oracle_load_flow_csv, oracle_write_csv


def make_flow_csv(tmp_path, rows, header=None, name="flows.csv"):
    header = header or (",".join(FEATURE_COLUMNS) + ",label")
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def flow_row(label, fill=1.0):
    return ",".join([f"{fill}"] * 28 + [label])


class TestLoad:
    def test_four_row_file(self, tmp_path):
        path = make_flow_csv(tmp_path, [
            flow_row("Tor", 1), flow_row("Tor", 2),
            flow_row("NonTor", 3), flow_row("NonTor", 4)])
        ds = load_flow_csv(path)
        assert ds.n_examples == 4
        assert sorted(ds.y.tolist()) == [0, 0, 1, 1]

    def test_blank_first_line_is_data_error(self, tmp_path):
        path = make_flow_csv(tmp_path, [flow_row("Tor")])
        path.write_text("\n" + path.read_text())
        with pytest.raises(DataError, match="last column must be 'label', got ''"):
            load_flow_csv(path)

    def test_case_insensitive_labels(self, tmp_path):
        path = make_flow_csv(tmp_path, [flow_row("TOR"), flow_row("nonTOR")])
        ds = load_flow_csv(path)
        assert sorted(ds.y.tolist()) == [0, 1]

    def test_short_row_rejected(self, tmp_path):
        short = ",".join(["1.0"] * 27 + ["Tor"])  # 28 cells under a 29-col header
        path = make_flow_csv(tmp_path, [flow_row("Tor"), short])
        with pytest.raises(DataError, match="expected 29 columns at row 3"):
            load_flow_csv(path)

    def test_unknown_label(self, tmp_path):
        path = make_flow_csv(tmp_path, [flow_row("Mystery")])
        with pytest.raises(DataError, match="unknown label 'Mystery'"):
            load_flow_csv(path)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        row = ",".join(["1.0"] * 5 + ["oops"] + ["1.0"] * 22 + ["Tor"])
        path = make_flow_csv(tmp_path, [row])
        with pytest.raises(DataError, match="row 2 column 6"):
            load_flow_csv(path)

    def test_unb_cic_aliases_and_dotted_ips(self, tmp_path):
        header = ("Source IP, Source Port, Destination IP, Destination Port, Protocol,"
                  " Flow Duration, Flow Bytes/s, Flow Packets/s,"
                  " Flow IAT Mean, Flow IAT Std, Flow IAT Max, Flow IAT Min,"
                  " Fwd IAT Mean, Fwd IAT Std, Fwd IAT Max, Fwd IAT Min,"
                  " Bwd IAT Mean, Bwd IAT Std, Bwd IAT Max, Bwd IAT Min,"
                  " Active Mean, Active Std, Active Max, Active Min,"
                  " Idle Mean, Idle Std, Idle Max, Idle Min,Label")
        row = "10.0.0.1,443,10.0.0.2,80,6," + ",".join(["1.0"] * 23) + ",TOR"
        path = make_flow_csv(tmp_path, [row], header=header)
        ds = load_flow_csv(path)
        assert ds.schema == FEATURE_COLUMNS
        assert ds.X[0, 0] == float(int.from_bytes(bytes([10, 0, 0, 1]), "big"))

    @pytest.mark.parametrize("last_cell", ["1.0", "oops"])  # read in C; again row by row
    def test_each_dotted_quad_is_parsed_once(self, tmp_path, monkeypatch, last_cell):
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_ipv4(text)

        monkeypatch.setattr(flow_meter, "parse_ipv4", counting)
        rows = [f"10.0.0.{i % 3},1,10.0.0.9,2," + ",".join(["1.0"] * 24) + ",Tor"
                for i in range(9)]
        rows[-1] = rows[-1].replace("1.0,Tor", f"{last_cell},Tor")
        path = make_flow_csv(tmp_path, rows)
        if last_cell == "oops":
            with pytest.raises(DataError, match="row 10 column 28"):
                load_flow_csv(path)
        else:
            assert load_flow_csv(path).X[:4, 0].tolist() == [
                float(parse_ipv4(f"10.0.0.{i % 3}")) for i in range(4)]
        assert sorted(parsed) == ["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.9"]

    def test_bad_value_policy_drop(self, tmp_path):
        inf_row = ",".join(["1.0"] * 6 + ["Infinity"] + ["1.0"] * 21 + ["Tor"])
        path = make_flow_csv(tmp_path, [flow_row("Tor"), inf_row,
                                        flow_row("NonTor")])
        with pytest.raises(DataError, match="non-finite"):
            load_flow_csv(path)
        ds = load_flow_csv(path, bad_value_policy="drop")
        assert ds.n_examples == 2

    def test_dropped_rows_counted(self, tmp_path):
        inf_row = ",".join(["nan"] + ["1.0"] * 27 + ["Tor"])
        path = make_flow_csv(tmp_path, [inf_row, flow_row("Tor"), inf_row,
                                        flow_row("NonTor"), inf_row])
        ds = load_flow_csv(path, bad_value_policy="drop")
        assert (ds.n_examples, ds.dropped) == (2, 3)
        assert load_flow_csv(make_flow_csv(tmp_path, [flow_row("Tor")],
                                           name="clean.csv"), "drop").dropped == 0

    def test_peak_memory_follows_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 20_000
        ds = Dataset(FEATURE_COLUMNS, rng.normal(size=(n, 28)),
                     rng.integers(0, 2, n))
        path = tmp_path / "big.csv"
        write_csv(ds, path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_flow_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        nbytes = loaded.X.nbytes
        assert loaded.X.flags.c_contiguous and loaded.X.flags.writeable
        np.testing.assert_array_equal(
            loaded.X, np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(28)))
        assert peak < 2 * nbytes + 2 * 2 ** 20, (peak, nbytes)

    @pytest.mark.parametrize("policy, tables", [("drop", 1), ("error", 2)])
    def test_address_memo_keeps_no_number_cell(self, tmp_path, policy, tables):
        """IP cells that are distinct numbers, but for a dotted quad in the last
        row, all go through the address memo: in the IP pass, and under
        "error", where an inf in that row also sends the file to the row
        reader, once more there. The memo keeps only the quad, so the peak
        stays below the float64 tables the load holds (the IP pass's, and the
        row reader's) plus 4 MiB. A memo that also kept the 40,000 number
        texts would pass that bound by about 2 MB on each path."""
        rng = np.random.default_rng(5)
        n = 20_000
        X = rng.normal(size=(n, 28))
        X[:, [0, 2]] = rng.choice(2 ** 32, size=(n, 2), replace=False)
        path = tmp_path / "numbers.csv"
        write_csv(Dataset(FEATURE_COLUMNS, X, rng.integers(0, 2, n)), path)
        *lines, last = path.read_text().splitlines()
        cells = last.split(",")
        cells[0] = "10.0.0.1"
        if policy == "error":
            cells[5] = "inf"
        path.write_text("\n".join([*lines, ",".join(cells)]) + "\n")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            try:
                loaded = load_flow_csv(path, policy)
            except DataError as exc:
                loaded = str(exc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        if policy == "drop":
            assert (loaded.X[-1, 0], loaded.X[0, 0]) == (167772161, X[0, 0])
        else:
            assert loaded == f"{path}: row {n + 1} column 6 (flow_duration): non-finite value 'inf'"
        assert peak < tables * X.nbytes + 4 * 2 ** 20, (peak, X.nbytes)

    def test_drop_across_blocks_matches_reference(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(9000, 4))
        X[::7, 1] = np.inf
        X[3::11, 3] = np.nan
        path = make_flow_csv(tmp_path, [
            ",".join(map(repr, row)) + "," + CLASS_NAMES[label]
            for row, label in zip(X.tolist(), rng.integers(0, 2, 9000).tolist())],
            header=",".join(_CODEC_SCHEMA + ("label",)))
        ds = load_flow_csv(path, "drop")
        assert ds.X.flags.c_contiguous and ds.dropped > 1000
        assert (_load_outcome(load_flow_csv, path, "drop")
                == _load_outcome(oracle_load_flow_csv, path, "drop"))

    def test_reduced_csv_roundtrip(self, tmp_path):
        ds = Dataset(("src_port", "idle_max"),
                     np.array([[1.0, 2.5], [3.0, 4.0]]),
                     np.array([0, 1]))
        path = tmp_path / "reduced.csv"
        write_csv(ds, path)
        again = load_flow_csv(path)
        assert again.schema == ds.schema
        np.testing.assert_allclose(again.X, ds.X)


# Cell texts the reader must treat exactly as the per-cell reference does.
_NUMBER_TEXTS = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6g}"),
    st.integers(-2 ** 40, 2 ** 40).map(str),
)
_NUMBER_CELLS = st.one_of(
    *_NUMBER_TEXTS,
    st.sampled_from(["1_0", "\u0661", "\u0661.\u0662", "1e308", "-1e308",
                     "1.7976931348623157e308"]),
)
_ODD_CELLS = st.sampled_from([
    "inf", "-inf", "Infinity", "nan", "NaN", "", "10.0.0.1", " 192.168.1.20 ",
    "300.1.1.1", "01.2.3.4", "1.2.3", "oops", "1__0", "0x10"])
_PADS = st.sampled_from(["", " ", "\t", "\xa0", "\u3000", "\x1c", "\x1f"])
_CELLS = st.tuples(_PADS, st.one_of(_NUMBER_CELLS, _NUMBER_CELLS, _ODD_CELLS),
                   _PADS).map("".join)
_LABELS = st.sampled_from(["Tor", "NonTor", " tor ", "NONTOR", "Mystery"])
_CODEC_SCHEMA = ("src_ip", "flow_duration", "dst_ip", "idle_min")


# Whole-line changes: the row as it stands (most often), quoted cells, a
# `#`, a blank or whitespace-only line before it, a trailing comma, or a
# dotted quad in a column that is not an IP column.
_LINE_CHANGES = st.sampled_from(["none"] * 8 + ["quote", "comment", "blank",
                                                "spaces", "comma", "dotted"])


def _changed_lines(cells, label, change):
    if change == "dotted":
        cells = [cells[0], "10.0.0.1"] + cells[2:]
    line = ",".join(cells + [label])
    if change == "quote":
        line = ",".join(f'"{cell}"' for cell in cells + [label])
    return {"comment": ["#" + line], "blank": ["", line], "spaces": [" \t", line],
            "comma": [line + ","]}.get(change, [line])


# All-numeric cells: plain numbers, sometimes padded with spaces or a tab,
# and now and then a non-finite one. numpy's C reader accepts every such
# file, so these exercise the fast path that the cells above mostly miss.
_NUMERIC_CELLS = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.one_of(*_NUMBER_TEXTS * 3,
              st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308",
                               "inf", "-inf", "Infinity", "nan", "NaN"])),
    st.sampled_from(["", " "])).map("".join)


def _load_outcome(load, path, policy):
    try:
        ds = load(path, policy)
    except DataError as exc:
        return str(exc)
    return ds.schema, ds.X.tobytes(), ds.y.tolist(), ds.dropped


class TestCsvCodecMatchesReference:
    """The bulk reader and writer against the per-cell reference versions."""

    @given(rows=st.lists(st.tuples(st.lists(_CELLS, min_size=4, max_size=4),
                                   _LABELS, _LINE_CHANGES), min_size=1, max_size=6),
           policy=st.sampled_from(["error", "drop"]),
           newline=st.sampled_from(["\n", "\r\n", "\r"]), last_newline=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_reader_matches(self, tmp_path_factory, rows, policy, newline,
                            last_newline):
        lines = [",".join(_CODEC_SCHEMA + ("label",))]
        for cells, label, change in rows:
            lines += _changed_lines(cells, label, change)
        path = tmp_path_factory.mktemp("codec") / "flows.csv"
        path.write_text(newline.join(lines) + newline * last_newline,
                        encoding="utf-8", newline="")
        assert (_load_outcome(load_flow_csv, path, policy)
                == _load_outcome(oracle_load_flow_csv, path, policy))

    def test_numeric_reader_matches_on_the_c_path(self, tmp_path_factory,
                                                  monkeypatch):
        accepted, fallbacks = [], []

        def counting_c_parse(*args):
            table = c_parse(*args)
            accepted.append(table is not None)
            return table

        def counting_read_rows(*args):
            fallbacks.append(args[0])
            return read_rows(*args)

        read_rows = dataset._read_rows
        monkeypatch.setattr(dataset, "c_parse", counting_c_parse)
        monkeypatch.setattr(dataset, "_read_rows", counting_read_rows)

        @given(rows=st.lists(st.tuples(st.lists(_NUMERIC_CELLS, min_size=4, max_size=4),
                                       st.sampled_from(["Tor", "NonTor", " tor ", "NONTOR"])),
                             min_size=1, max_size=6),
               policy=st.sampled_from(["error", "drop"]),
               newline=st.sampled_from(["\n", "\r\n", "\r"]), last_newline=st.booleans())
        @settings(max_examples=200, deadline=None)
        def reader_matches(rows, policy, newline, last_newline):
            lines = [",".join(_CODEC_SCHEMA + ("label",))]
            lines += [",".join(cells + [label]) for cells, label in rows]
            path = tmp_path_factory.mktemp("numeric") / "flows.csv"
            path.write_text(newline.join(lines) + newline * last_newline,
                            encoding="utf-8", newline="")
            before = len(fallbacks)
            outcome = _load_outcome(load_flow_csv, path, policy)
            # numpy takes every file; only a non-finite cell under "error"
            # sends it back to the per-row reader.
            non_finite = any(not math.isfinite(float(cell))
                             for cells, _ in rows for cell in cells)
            assert len(fallbacks) - before == (policy == "error" and non_finite)
            assert outcome == _load_outcome(oracle_load_flow_csv, path, policy)

        reader_matches()
        assert all(accepted)

    @staticmethod
    def counted_calls(monkeypatch) -> dict[str, list]:
        """The results of every c_parse call, and the texts given to parse_ipv4
        and to the IP-cell memo's __missing__ (each lookup of a text it has
        not kept), while the test runs, by function name."""
        calls: dict[str, list] = {"c_parse": [], "parse_ipv4": [], "__missing__": []}
        owners = {"c_parse": dataset, "parse_ipv4": flow_meter,
                  "__missing__": dataset._IpCells}
        for name, seen in calls.items():
            def counting(*args, _call=getattr(owners[name], name), _seen=seen,
                         _result=name == "c_parse"):
                result = _call(*args)
                _seen.append(result if _result else args[-1])
                return result
            monkeypatch.setattr(owners[name], name, counting)
        return calls

    def test_numeric_ip_columns_parse_in_c(self, tmp_path, monkeypatch):
        """A numeric table with both IP columns and labels of any case loads in one
        c_parse call, with no Python call per IP cell."""
        rows = [",".join(f"{167772161 + i + col}" for col in range(28)) + label
                for i, label in enumerate([",Tor", ",NonTor", ", tor ", ",NONTOR"])]
        path = make_flow_csv(tmp_path, rows)
        calls = self.counted_calls(monkeypatch)
        ds = load_flow_csv(path)
        assert [table is not None for table in calls["c_parse"]] == [True]
        assert calls["parse_ipv4"] == calls["__missing__"] == []
        assert ds.y.tolist() == [1, 0, 1, 0]
        assert _load_outcome(load_flow_csv, path, "error") == _load_outcome(
            oracle_load_flow_csv, path, "error")

    @pytest.mark.parametrize("policy", ["error", "drop"])
    def test_dotted_quad_in_the_last_row_only(self, tmp_path, monkeypatch, policy):
        """A file whose first dotted quad is in its last row: the numeric pass
        rejects it there, and the pass with IP converters reads it as the
        reference does."""
        header = ",".join(_CODEC_SCHEMA + ("label",))
        rows = [f"{i},{i / 4},{3 * i},{i % 5},{('Tor', 'NonTor')[i % 2]}" for i in range(30)]
        rows[-1] = "1,2,10.0.0.1,4,nontor"
        path = make_flow_csv(tmp_path, rows, header=header)
        calls = self.counted_calls(monkeypatch)
        outcome = _load_outcome(load_flow_csv, path, policy)
        assert [table is not None for table in calls["c_parse"]] == [False, True]
        assert calls["parse_ipv4"] == ["10.0.0.1"]
        assert outcome == _load_outcome(oracle_load_flow_csv, path, policy)
        assert outcome[2][-1] == 0

    @pytest.mark.parametrize("quad, passes", [(False, 1), (True, 2)])
    def test_unknown_label_goes_straight_to_the_row_reader(self, tmp_path, monkeypatch,
                                                           quad, passes):
        """A last label `Mystery` fails the numeric pass in the label converter,
        so the row reader names it with no pass through the IP converters. A
        dotted quad in the first row fails the numeric pass first, and the
        pass with IP converters then fails at the label."""
        header = ",".join(_CODEC_SCHEMA + ("label",))
        rows = [f"{i},{i / 4},{3 * i},{i % 5},{('Tor', 'NonTor')[i % 2]}" for i in range(30)]
        rows[-1] = "1,2,3,4,Mystery"
        if quad:
            rows[0] = "0,0,10.0.0.1,0,Tor"
        path = make_flow_csv(tmp_path, rows, header=header)
        calls = self.counted_calls(monkeypatch)
        outcome = _load_outcome(load_flow_csv, path, "error")
        assert calls["c_parse"] == [None] * passes
        assert outcome == f"{path}: row 31: unknown label 'Mystery'"
        assert outcome == _load_outcome(oracle_load_flow_csv, path, "error")

    def test_reader_errors_match(self, tmp_path):
        rows = ["1,2,3,4,Tor", "1,inf,x,4,Tor", "1,2,3.0.0.1,4,Tor",
                "1e308,1e308,3,4,Tor", "1,2,3,4,Mystery", "1,2,3,Tor"]
        header = ",".join(_CODEC_SCHEMA + ("label",))
        for bad in rows[1:]:
            path = make_flow_csv(tmp_path, [rows[0], bad], header=header)
            for policy in ("error", "drop"):
                outcome = _load_outcome(load_flow_csv, path, policy)
                assert outcome == _load_outcome(oracle_load_flow_csv, path, policy)

    @given(values=st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-2 ** 60, 2 ** 60).map(float),
        st.sampled_from([0.0, -0.0, 2.0 ** 53, 2.0 ** 53 + 2, -2.0 ** 60, 5e-324,
                         999999.5, 9999995.0, 0.9999995, 123456.4, -99999.95,
                         2.0 ** 53 - 1, 2.0 ** 53 + 1, 1 - 2.0 ** 53, -1 - 2.0 ** 53]),
        st.sampled_from([999999.5, -999999.5]).flatmap(lambda edge: st.sampled_from(
            [np.nextafter(edge, 0.0), np.nextafter(edge, 2 * edge)])).map(float),
        st.floats(min_value=-1e-300, max_value=1e-300),
        st.tuples(st.integers(-10 ** 7, 10 ** 7),
                  st.floats(min_value=-1e-6, max_value=1e-6)).map(sum),
    ), min_size=1, max_size=24), width=st.integers(1, 4), tall=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_writer_matches(self, tmp_path_factory, values, width, tall):
        """A tall table repeats the values across the writer's 4096-row
        blocks, so the same and new integral masks meet at a block edge."""
        rows = 4099 if tall else len(values) // width or 1
        X = np.resize(np.array(values, dtype=np.float64), (rows, width))
        ds = Dataset(_CODEC_SCHEMA[:width], X, np.arange(rows) % 2)
        out = tmp_path_factory.mktemp("codec")
        write_csv(ds, out / "bulk.csv")
        oracle_write_csv(ds, out / "cells.csv")
        assert (out / "bulk.csv").read_bytes() == (out / "cells.csv").read_bytes()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_writer_rejects_a_non_finite_cell(self, tmp_path, value):
        X = np.ones((5000, 4))
        X[4100, 2] = value
        path = tmp_path / "out.csv"
        with pytest.raises(DataError) as err:
            write_csv(Dataset(_CODEC_SCHEMA, X, np.arange(5000) % 2), path)
        assert str(err.value) == (f"{path}: row 4102 column 3 (dst_ip): "
                                  f"non-finite value {value}")
        assert not path.exists()

    def test_writer_matches_on_many_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(scale=1e4, size=(2500, 3))
        X[::3, 1] = np.rint(X[::3, 1])
        ds = Dataset(_CODEC_SCHEMA[:3], X, rng.integers(0, 2, 2500))
        write_csv(ds, tmp_path / "bulk.csv")
        oracle_write_csv(ds, tmp_path / "cells.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (
            tmp_path / "cells.csv").read_bytes()


class TestSplit:
    def test_sizes_and_stratification(self):
        y = np.array([0] * 50 + [1] * 50)
        idx_train, idx_val, idx_test = stratified_split_indices(
            y, SplitSpec(seed=1))
        assert (len(idx_train), len(idx_val), len(idx_test)) == (70, 15, 15)
        for idx in (idx_train, idx_val, idx_test):
            per_class = np.bincount(y[idx], minlength=2)
            assert abs(per_class[0] - per_class[1]) <= 1
        train_classes = np.bincount(y[idx_train], minlength=2)
        assert train_classes.tolist() == [35, 35]

    def test_partition_exact(self):
        y = np.array([0] * 37 + [1] * 23)
        parts = stratified_split_indices(y, SplitSpec(seed=9))
        merged = np.concatenate(parts)
        assert len(merged) == len(y)
        assert len(np.unique(merged)) == len(y)

    def test_deterministic(self):
        y = np.array([0, 1] * 30)
        a = stratified_split_indices(y, SplitSpec(seed=1))
        b = stratified_split_indices(y, SplitSpec(seed=1))
        for x, z in zip(a, b):
            np.testing.assert_array_equal(x, z)

    def test_seed_changes_permutation(self):
        y = np.array([0, 1] * 30)
        a = stratified_split_indices(y, SplitSpec(seed=1))
        b = stratified_split_indices(y, SplitSpec(seed=2))
        assert (len(a[0]), len(a[1]), len(a[2])) == (len(b[0]), len(b[1]), len(b[2]))
        assert any(not np.array_equal(x, z) for x, z in zip(a, b))

    def test_small_class_rejected(self):
        y = np.array([0] * 10 + [1] * 2)
        with pytest.raises(DataError, match="fewer than 3"):
            stratified_split_indices(y, SplitSpec())

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train=0.7, validation=0.15, test=0.2)
        with pytest.raises(ValueError):
            SplitSpec(train=1.0, validation=-0.1, test=0.1)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=40)
        y[:3] = 0
        y[3:6] = 1
        parts = stratified_split_indices(y, SplitSpec(seed=seed))
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(len(y)))


class TestScaler:
    def test_zscore_column(self):
        ds = Dataset(("a",), np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 1]))
        scaled = apply_scaler(fit_scaler(ds), ds)
        np.testing.assert_allclose(
            scaled.X[:, 0], [-1.224744871391589, 0.0, 1.224744871391589])

    def test_constant_column_passthrough(self):
        ds = Dataset(("a", "b"), np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                     np.array([0, 0, 1]))
        scaler = fit_scaler(ds)
        assert scaler.passthrough.tolist() == [True, False]
        scaled = apply_scaler(scaler, ds)
        np.testing.assert_array_equal(scaled.X[:, 0], [5.0, 5.0, 5.0])

    def test_training_mean_maps_to_zero(self):
        ds = Dataset(("a", "b"), np.array([[1.0, 10.0], [3.0, 30.0]]),
                     np.array([0, 1]))
        scaler = fit_scaler(ds)
        out = scaler.transform(np.array([[2.0, 20.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0]])

    @pytest.mark.parametrize("fitted", [True, False])
    def test_bits_match_masked_reference(self, fitted):
        """transform's subtract-then-divide gives the masked gather/scatter
        form's bits, passthrough columns (with -0.0, inf and nan) included;
        a loaded scaler may carry any mean and std on a passthrough column."""
        rng = np.random.default_rng(11)
        X = rng.normal(3.0, 2.5, (50, 6)) * np.array([1, 1e-8, 1e8, 1, 1, 1])
        X[:, 3] = 7.0  # constant: passthrough when fitted
        if fitted:
            scaler = fit_scaler(Dataset(tuple(f"f{i}" for i in range(6)), X,
                                        rng.integers(0, 2, 50)))
            assert scaler.passthrough.tolist() == [False] * 3 + [True] + [False] * 2
        else:
            scaler = Scaler(mean=rng.normal(size=6), std=rng.uniform(0.5, 2.0, 6),
                            passthrough=np.array([True, False, True, False, False, True]))
        X[:4, 3] = [-0.0, np.inf, -np.inf, np.nan]
        X[:2, 5] = [-0.0, 0.0]
        got, want = scaler.transform(X), masked_transform(scaler, X)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_scaled_train_is_standardized(self):
        rng = np.random.default_rng(0)
        ds = Dataset(tuple(f"f{i}" for i in range(5)),
                     rng.normal(3.0, 2.5, (200, 5)), rng.integers(0, 2, 200))
        scaled = apply_scaler(fit_scaler(ds), ds)
        np.testing.assert_allclose(scaled.X.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.X.std(axis=0), 1.0, atol=1e-9)


class TestSynthetic:
    def test_linear_separability(self):
        spec = SyntheticSpec(class_means=((0.0, 0.0), (4.0, 4.0)),
                             rows_per_class=(100, 100))
        ds, _ = generate_synthetic(spec, seed=2)
        # Brute-force linear scan: project on the class-mean axis and try
        # every midpoint threshold.
        direction = np.array([1.0, 1.0])
        proj = ds.X @ direction
        order = np.argsort(proj)
        best = 0.0
        thresholds = (proj[order][1:] + proj[order][:-1]) / 2
        for t in thresholds:
            acc = ((proj > t).astype(int) == ds.y).mean()
            best = max(best, acc, 1 - acc)
        assert best >= 0.99

    def test_exact_duplicate_has_unit_correlation(self):
        spec = SyntheticSpec(class_means=((0.0,), (2.0,)),
                             rows_per_class=(50, 50),
                             duplicates=((0, 0.0),))
        ds, roles = generate_synthetic(spec, seed=3)
        src, dup = roles["informative"][0], roles["duplicate"][0]
        corr = np.corrcoef(ds.X[:, src], ds.X[:, dup])[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_noise_uncorrelated_with_class(self):
        spec = SyntheticSpec(class_means=((0.0,), (3.0,)),
                             rows_per_class=(250, 250), n_noise=4)
        for seed in range(5):
            ds, roles = generate_synthetic(spec, seed=seed)
            for j in roles["noise"]:
                r = np.corrcoef(ds.X[:, j], ds.y.astype(float))[0, 1]
                assert abs(r) < 0.2

    def test_reproducible_bytes(self, tmp_path):
        spec = default_synthetic_spec()
        paths = []
        for name in ("a.csv", "b.csv"):
            ds, _ = generate_synthetic(spec, seed=42)
            path = tmp_path / name
            write_csv(ds, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_one_mean_per_declared_class(self, n_classes):
        with pytest.raises(ValueError, match="one class mean for each of 2"):
            SyntheticSpec(class_means=tuple((float(c),) for c in range(n_classes)),
                          rows_per_class=(3,) * n_classes)

    def test_default_spec_cell_bound(self):
        # Only the spec is built: nothing of the table is allocated.
        rows = MAX_CELLS // (2 * 28)
        assert default_synthetic_spec(rows_per_class=rows).rows_per_class == (rows, rows)
        with pytest.raises(ValueError, match=f"more than {MAX_CELLS} cells"):
            default_synthetic_spec(rows_per_class=rows + 1)
        with pytest.raises(ValueError, match="more than"):
            default_synthetic_spec(rows_per_class=6_000, noise_features=9_000)

    def test_default_spec_shape(self):
        ds, roles = generate_synthetic(default_synthetic_spec(), seed=0)
        assert ds.n_examples == 1000
        assert ds.n_features == 28
        assert ds.schema == FEATURE_COLUMNS
        assert np.bincount(ds.y).tolist() == [500, 500]
        assert len(roles["noise"]) == 22


def test_one_hot():
    out = one_hot(np.array([0, 1, 1]))
    np.testing.assert_array_equal(out, [[1, 0], [0, 1], [0, 1]])


def test_no_feature_columns_is_data_error():
    with pytest.raises(DataError, match="dataset has no feature columns"):
        Dataset((), np.zeros((4, 0)), np.array([0, 1, 0, 1]))
