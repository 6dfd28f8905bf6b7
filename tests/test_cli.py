import errno
import hashlib
import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import warnings
import weakref
from ipaddress import IPv4Address
from pathlib import Path

import numpy as np
import pytest

from flowsieve import metrics, mlp, svm
from flowsieve.cli import main
from flowsieve.dataset import (CLASS_NAMES, UNB_CIC_ALIASES, Dataset,
                               SyntheticSpec, generate_synthetic, load_flow_csv,
                               write_csv)
from flowsieve.errors import DataError
from flowsieve.flow_meter import FEATURE_COLUMNS, MeterConfig
from conftest import assert_close
from oracles import (format_cell, oracle_features, oracle_flows, oracle_load_flow_csv,
                     random_trace)

TEN_PACKETS = """\
0,10.0.0.1,443,10.0.0.2,5555,6,100
500000,10.0.0.2,5555,10.0.0.1,443,6,60
1000000,10.0.0.1,443,10.0.0.2,5555,6,100
1500000,10.0.0.3,80,10.0.0.4,50000,17,200
2000000,10.0.0.1,443,10.0.0.2,5555,6,100
9000000,10.0.0.3,80,10.0.0.4,50000,17,200
9500000,10.0.0.4,50000,10.0.0.3,80,17,40
10000000,10.0.0.1,443,10.0.0.2,5555,6,100
140000000,10.0.0.1,443,10.0.0.2,5555,6,100
141000000,10.0.0.2,5555,10.0.0.1,443,6,60
"""


@pytest.fixture
def packet_file(tmp_path):
    path = tmp_path / "packets.txt"
    path.write_text(TEN_PACKETS)
    return path


def synth_csv(tmp_path, name="flows.csv", rows=120, seed=3):
    """A small synthetic dataset written under canonical 28-column names."""
    spec = SyntheticSpec(
        class_means=(tuple([0.0] * 4), tuple([4.0] * 4)),
        rows_per_class=(rows // 2, rows // 2),
        duplicates=((0, 0.05), (1, 0.05)),
        n_noise=22,
        feature_names=FEATURE_COLUMNS,
    )
    ds, _ = generate_synthetic(spec, seed=seed)
    path = tmp_path / name
    write_csv(ds, path)
    return path


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def two_tor_rows(tmp_path) -> Path:
    """synth_csv's table cut to two Tor rows: select runs on it, but the
    split, which needs three rows of each class, stops it with exit 3."""
    header, *rows = synth_csv(tmp_path, "full.csv").read_text().splitlines()
    tor = [row for row in rows if row.endswith(",Tor")]
    path = tmp_path / "two_tor.csv"
    path.write_text("\n".join([header, *tor[:2], *(r for r in rows if r not in tor)]) + "\n")
    return path


def write_ini(path, sections: dict[str, dict[str, str]]):
    """An INI config of these [section] key = value lines; returns its path."""
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()), encoding="utf-8")
    return path


def unb_cic_csv(tmp_path, rows=120, seed=3, infinity_every=8):
    """A synth_csv table in the form the UNB-CIC CSVs are published in, and
    its kept rows in canonical form; returns (published, canonical, dropped).

    The published form has the UNB_CIC_ALIASES headers, 32-bit integer
    addresses in src_ip and dst_ip written as dotted quads, and `Infinity`
    in `Flow Bytes/s` on every `infinity_every`-th row, which
    bad_value_policy = drop skips. The other cells are written as write_csv
    writes them, so both files load to the same kept rows.
    """
    ds = load_flow_csv(synth_csv(tmp_path, "synth.csv", rows, seed))
    X = ds.X.copy()
    ip_cols = [ds.schema.index("src_ip"), ds.schema.index("dst_ip")]
    X[:, ip_cols] = np.random.default_rng(seed).integers(0, 2 ** 32, (len(X), 2))
    bytes_col = ds.schema.index("flow_bytes_per_s")
    published_names = {name: alias for alias, name in UNB_CIC_ALIASES.items()}
    lines = [",".join(published_names[name] for name in ds.schema + ("label",))]
    for i, (row, label) in enumerate(zip(X, ds.y)):
        cells = [format_cell(v) for v in row.tolist()]
        for col in ip_cols:
            cells[col] = str(IPv4Address(int(row[col])))
        if i % infinity_every == 0:
            cells[bytes_col] = "Infinity"
        lines.append(",".join(cells + [CLASS_NAMES[label]]))
    published = tmp_path / "published.csv"
    published.write_text("\n".join(lines) + "\n")
    kept = np.arange(len(X)) % infinity_every != 0
    canonical = tmp_path / "canonical.csv"
    write_csv(Dataset(ds.schema, X[kept], ds.y[kept]), canonical)
    return published, canonical, int((~kept).sum())


def spy_loads(monkeypatch) -> list[str]:
    """Record the file name of every cli.load_flow_csv call."""
    from flowsieve import cli

    calls = []

    def spy(path, *args):
        calls.append(Path(path).name)
        return load_flow_csv(path, *args)

    monkeypatch.setattr(cli, "load_flow_csv", spy)
    return calls


class TestMeter:
    def test_golden_against_oracle(self, packet_file, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["meter", str(packet_file), "--out-dir", str(out_dir),
                     "--label", "Tor"]) == 0
        flows_csv = out_dir / "flows.csv"
        lines = flows_csv.read_text().splitlines()
        assert lines[0].split(",") == list(FEATURE_COLUMNS) + ["label"]
        assert all(len(l.split(",")) == 29 for l in lines[1:])

        from oracles import parse_packet_record
        packets = [parse_packet_record(l, i + 1)
                   for i, l in enumerate(TEN_PACKETS.splitlines())]
        cfg = MeterConfig()
        groups = oracle_flows(packets, cfg.flow_timeout_us)
        assert len(lines) - 1 == len(groups)
        for line, group in zip(lines[1:], groups):
            got = [float(v) for v in line.split(",")[:-1]]
            assert_close(got, oracle_features(group, cfg.activity_timeout_us),
                         rel=1e-6)  # CSV cells carry 6 significant digits
            assert line.endswith(",Tor")

    def test_deterministic_bytes(self, packet_file, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["meter", str(packet_file), "--label", "Tor",
                         "--out-dir", str(out_dir)]) == 0
            outputs.append((out_dir / "flows.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_empty_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        rc = main(["meter", str(path), "--label", "Tor",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: {path}: no packets\n"

    def test_unsorted_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "unsorted.txt"
        path.write_text("1000,10.0.0.1,443,10.0.0.2,80,6,60\n"
                        "500,10.0.0.1,443,10.0.0.2,80,6,60\n")
        rc = main(["meter", str(path), "--label", "Tor",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: line 2: out-of-order timestamp: 500 < 1000\n")

    def test_unsorted_input_names_file_line(self, tmp_path, capsys):
        path = tmp_path / "unsorted.txt"
        path.write_text("timestamp_us,src_ip,src_port,dst_ip,dst_port,proto,bytes\n"
                        "1000,10.0.0.1,443,10.0.0.2,80,6,60\n"
                        "\n"
                        "1000,10.0.0.1,443,10.0.0.2,80,6,60\n"
                        "999,10.0.0.1,443,10.0.0.2,80,6,60\n")
        rc = main(["meter", str(path), "--label", "Tor",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: line 5: out-of-order timestamp: 999 < 1000\n")

    def test_malformed_address_names_file(self, tmp_path, capsys):
        path = tmp_path / "bad_ip.txt"
        path.write_text("1000,10.0.0.1,443,10.0.0.2,80,6,60\n"
                        "1500,10.0.0.1,443,999.0.0.2,80,6,60\n")
        rc = main(["meter", str(path), "--label", "Tor",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: line 2: dst_ip: "
            f"malformed IPv4 address '999.0.0.2'\n")

    @pytest.mark.parametrize("field, name, limit", [(0, "timestamp_us", 2 ** 53),
                                                    (6, "bytes", 2 ** 32)])
    @pytest.mark.parametrize("past", [0, 1, 2 ** 64])
    def test_field_bounds(self, tmp_path, capsys, field, name, limit, past):
        fields = TEN_PACKETS.splitlines()[0].split(",")
        fields[field] = str(limit - 1 + past)
        path = tmp_path / "bounds.txt"
        path.write_text(TEN_PACKETS.splitlines()[0] + "\n" + ",".join(fields) + "\n")
        rc = main(["meter", str(path), "--label", "Tor",
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if past:
            assert rc == 3
            assert err == (f"data error: {path}: line 2: {name}: too large: "
                           f"{limit - 1 + past} (must be below 2**{limit.bit_length() - 1})\n")
        else:
            assert rc == 0 and err == ""

    def test_missing_file_is_usage_error(self, tmp_path):
        rc = main(["meter", str(tmp_path / "nope.txt"), "--label", "Tor",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_manifest_written(self, packet_file, tmp_path):
        out_dir = tmp_path / "out"
        main(["meter", str(packet_file), "--label", "Tor",
              "--out-dir", str(out_dir), "--seed", "5"])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["command"] == "meter"
        assert str(packet_file) in manifest["inputs"]
        assert "flows.csv" in manifest["artifacts"]
        assert "meter" in manifest["timings_s"]


class TestSelect:
    def test_report_and_reduced_csv(self, tmp_path):
        flows = synth_csv(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["select", str(flows), "--out-dir", str(out_dir)]) == 0
        report = (out_dir / "selection.txt").read_text()
        assert "dimensionality reduction" in report
        reduced = load_flow_csv(out_dir / "selected.csv")
        full = load_flow_csv(flows)
        n_kept = reduced.n_features
        expected = 100.0 * (1.0 - n_kept / full.n_features)
        assert f"{expected:.1f}%" in report
        assert (out_dir / "correlation_matrix.csv").exists()

    def test_reduction_message_for_28_to_10(self, capsys):
        # The printed percentage comes from actual column counts: 28 -> 10
        # prints 64.3%, not a hard-coded figure.
        assert f"{100.0 * (1.0 - 10 / 28):.1f}" == "64.3"

    def test_duplicates_absent_from_output(self, tmp_path):
        # Exact duplicate planted for feature 0 under a distinct column name.
        spec = SyntheticSpec(
            class_means=((0.0, 0.0, 0.0), (3.0, 3.0, 3.0)),
            rows_per_class=(80, 80),
            duplicates=((0, 0.0),),
            n_noise=2,
            feature_names=("src_port", "dst_port", "flow_duration",
                           "idle_max", "active_max", "flow_iat_mean"),
        )
        ds, roles = generate_synthetic(spec, seed=9)
        flows = tmp_path / "dup.csv"
        write_csv(ds, flows)
        out_dir = tmp_path / "out"
        assert main(["select", str(flows), "--out-dir", str(out_dir)]) == 0
        kept = load_flow_csv(out_dir / "selected.csv").schema
        dup_name = ds.schema[roles["duplicate"][0]]
        src_name = ds.schema[roles["duplicate_of"][roles["duplicate"][0]]]
        assert not {dup_name, src_name} <= set(kept)

    def test_input_parsed_once(self, tmp_path, monkeypatch):
        calls = spy_loads(monkeypatch)
        flows = synth_csv(tmp_path)
        assert main(["select", str(flows), "--out-dir", str(tmp_path / "out")]) == 0
        assert calls == ["flows.csv"]

    def test_one_row_is_data_error(self, tmp_path, capsys):
        lines = synth_csv(tmp_path).read_text().splitlines()
        path = tmp_path / "one_row.csv"
        path.write_text("\n".join(lines[:2]) + "\n")
        label = lines[1].rsplit(",", 1)[1]
        assert main(["select", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: selection needs rows of both classes, "
            f"got only {label} rows\n")

    def test_metered_capture_is_one_class_data_error(self, packet_file, tmp_path, capsys):
        """A capture metered under one label once selected features at merit 0."""
        out_dir = tmp_path / "out"
        assert main(["meter", str(packet_file), "--label", "Tor",
                     "--out-dir", str(out_dir)]) == 0
        flows = out_dir / "flows.csv"
        assert main(["select", str(flows), "--out-dir", str(tmp_path / "sel")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {flows}: selection needs rows of both classes, "
            "got only Tor rows\n")
        assert not (tmp_path / "sel" / "selected.csv").exists()

    def test_column_too_large_to_correlate_is_data_error(self, tmp_path, capsys):
        """Finite flow_duration cells of 1e200-7e200 overflow the column's
        norm. That once scored the column's correlations 0 under two
        overflow RuntimeWarnings and exited 0."""
        flows = synth_csv(tmp_path)
        ds = load_flow_csv(flows)
        ds.X[:, ds.schema.index("flow_duration")] = np.random.default_rng(8).uniform(
            1e200, 7e200, ds.n_examples)
        write_csv(ds, flows)
        out_dir = tmp_path / "out"
        assert main(["select", str(flows), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {flows}: column flow_duration: its norm or correlation "
            "products are not finite\n")
        assert not (out_dir / "selected.csv").exists()

    def test_unlabeled_rejected(self, tmp_path):
        path = tmp_path / "unlabeled.csv"
        path.write_text("src_port,dst_port\n1,2\n")
        rc = main(["select", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 3


class TestTrain:
    def test_ann_training_run(self, tmp_path):
        flows = synth_csv(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["train", str(flows), "--classifier", "ann",
                     "--out-dir", str(out_dir), "--seed", "3"]) == 0
        assert (out_dir / "ann_model.txt").exists()
        history = (out_dir / "ann_history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) > 1
        assert (out_dir / "test.csv").exists()

    def test_both_mode_shares_one_split(self, tmp_path):
        flows = synth_csv(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["train", str(flows), "--classifier", "both",
                     "--out-dir", str(out_dir), "--seed", "3"]) == 0
        assert (out_dir / "ann_model.txt").exists()
        assert (out_dir / "svm_model.txt").exists()
        # one test.csv: both models are evaluated against the same split
        test_rows = (out_dir / "test.csv").read_text().splitlines()
        assert len(test_rows) - 1 == 18  # 15% of 120

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("src_port,dst_port\n1,2\n")
        rc = main(["train", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 3

    def test_validation_curve_tracks_best(self, tmp_path):
        flows = synth_csv(tmp_path)
        out_dir = tmp_path / "out"
        main(["train", str(flows), "--classifier", "ann",
              "--out-dir", str(out_dir), "--seed", "4"])
        rows = (out_dir / "ann_history.csv").read_text().splitlines()[1:]
        val = [float(r.split(",")[2]) for r in rows]
        assert min(val) <= val[0]

    def test_dropped_rows_reported(self, tmp_path, capsys):
        flows = synth_csv(tmp_path)
        lines = flows.read_text().splitlines()
        cells = lines[5].split(",")
        cells[6] = "Infinity"
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
        clean = tmp_path / "clean.csv"
        clean.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        for policy in ("drop", "error"):
            (tmp_path / f"{policy}.ini").write_text(
                f"[input]\nbad_value_policy = {policy}\n")

        def train(path, policy, out):
            rc = main(["train", str(path), "--classifier", "ann", "--seed", "3",
                       "--config", str(tmp_path / f"{policy}.ini"),
                       "--out-dir", str(tmp_path / out)])
            return rc, capsys.readouterr()

        rc, clean_run = train(clean, "drop", "clean")
        assert (rc, clean_run.err) == (0, "")
        rc, drop_run = train(dirty, "drop", "drop")
        assert rc == 0
        assert drop_run.err == (f"{dirty}: dropped 1 rows with non-finite cells "
                                "(bad_value_policy = drop)\n")
        assert drop_run.out == clean_run.out
        for name in ("ann_model.txt", "ann_history.csv", "test.csv"):
            assert ((tmp_path / "drop" / name).read_bytes()
                    == (tmp_path / "clean" / name).read_bytes())
        rc, error_run = train(dirty, "error", "error")
        assert rc == 3
        assert "row 6 column 7 (flow_bytes_per_s): non-finite value" in error_run.err

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_column_too_large_to_scale_is_data_error(self, tmp_path, capsys, command):
        """Finite flow_duration cells of 1e200-7e200 overflow the training
        split's std. That once wrote `scaler_std ... inf` into both model
        files, which eval then rejected."""
        flows = synth_csv(tmp_path)
        ds = load_flow_csv(flows)
        ds.X[:, ds.schema.index("flow_duration")] = np.random.default_rng(8).uniform(
            1e200, 7e200, ds.n_examples)
        write_csv(ds, flows)
        cfg = tmp_path / "run.ini"  # select off: with it on, select stops at the column first
        cfg.write_text(f"[input]\nflows = {flows}\n[select]\nenabled = false\n"
                       "[train]\nclassifier = both\n")
        argv = ["train", str(flows)] if command == "train" else ["pipeline"]
        out_dir = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {flows}: column flow_duration: its training-split mean "
            "or std is not finite\n")
        assert not list(out_dir.glob("*_model.txt"))


class TestEval:
    def _train(self, tmp_path, classifier="ann", seed=3):
        flows = synth_csv(tmp_path)
        out_dir = tmp_path / "train_out"
        assert main(["train", str(flows), "--classifier", classifier,
                     "--out-dir", str(out_dir), "--seed", str(seed)]) == 0
        return flows, out_dir

    def test_perfect_model_scores_all_hundred(self, tmp_path):
        flows, train_out = self._train(tmp_path)
        out_dir = tmp_path / "eval_out"
        assert main(["eval", str(train_out / "test.csv"),
                     "--model", str(train_out / "ann_model.txt"),
                     "--out-dir", str(out_dir)]) == 0
        report = (out_dir / "report.txt").read_text()
        for line in report.strip().splitlines()[1:]:
            cell = line.split()[-1]
            assert cell in ("100.0", "0.0")

    def test_multi_column_report(self, tmp_path):
        flows, train_out = self._train(tmp_path, classifier="both")
        out_dir = tmp_path / "eval_out"
        assert main(["eval", str(train_out / "test.csv"),
                     "--model", str(train_out / "ann_model.txt"),
                     "--model", str(train_out / "svm_model.txt"),
                     "--reference",
                     "--out-dir", str(out_dir)]) == 0
        header = (out_dir / "report.txt").read_text().splitlines()[0]
        assert "ann_model" in header and "svm_model" in header
        assert "C4.5" in header

    def test_projection_by_feature_name(self, tmp_path):
        # Train on a reduced CSV, then evaluate against the full 28 columns.
        flows = synth_csv(tmp_path)
        select_out = tmp_path / "sel"
        assert main(["select", str(flows), "--out-dir", str(select_out)]) == 0
        train_out = tmp_path / "train"
        assert main(["train", str(select_out / "selected.csv"),
                     "--classifier", "ann", "--out-dir", str(train_out),
                     "--seed", "3"]) == 0
        eval_out = tmp_path / "eval"
        assert main(["eval", str(flows),
                     "--model", str(train_out / "ann_model.txt"),
                     "--out-dir", str(eval_out)]) == 0
        assert (eval_out / "report.csv").exists()

    @pytest.mark.parametrize("file_name, name, column", [
        ("ann_model.txt", "", "ann_model"),  # a plain path names its column by its stem
        ("ann_model.txt", "ANN=", "ANN"),
        ("k=v.txt", "K=", "K"),  # split at the first "="
    ])
    def test_model_value_names_its_column(self, small_run, tmp_path, file_name, name,
                                          column):
        model = tmp_path / file_name
        model.write_bytes((small_run / "ann_model.txt").read_bytes())
        out_dir = tmp_path / "eval_out"
        assert main(["eval", str(small_run / "test.csv"), "--model", name + str(model),
                     "--out-dir", str(out_dir)]) == 0
        assert list(metrics.parse_report_csv((out_dir / "report.csv").read_text())) \
            == [column]

    def test_empty_column_name_is_usage_error(self, small_run, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", str(small_run / "test.csv"),
                  "--model", "=" + str(small_run / "ann_model.txt"),
                  "--out-dir", str(tmp_path / "eval_out")])
        assert exit_info.value.code == 2
        assert "empty column name" in capsys.readouterr().err

    @pytest.mark.parametrize("file_name, name", [
        ("ann_model.txt", "a\nb="), ("ann_model.txt", "a\rb="), ("ann_model.txt", "\n="),
        ("x\ny.txt", ""),  # a stem names the column too
    ])
    def test_column_name_with_line_break_is_usage_error(self, small_run, tmp_path, capsys,
                                                         file_name, name):
        # Such a name would split report.txt's header row in two.
        model = tmp_path / file_name
        model.write_bytes((small_run / "ann_model.txt").read_bytes())
        out_dir = tmp_path / "eval_out"
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", str(small_run / "test.csv"), "--model", name + str(model),
                  "--out-dir", str(out_dir)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --model: line break in column name" in err
        assert not out_dir.exists()

    def test_repeated_column_name_is_usage_error(self, small_run, tmp_path, capsys):
        # Two models that name one report column: one would replace the other.
        # They share a stem, or are given one NAME.
        other = tmp_path / "other" / "ann_model.txt"
        other.parent.mkdir()
        other.write_bytes((small_run / "ann_model.txt").read_bytes())
        out_dir = tmp_path / "eval_out"
        for name, column in (("", "ann_model"), ("X=", "X")):
            rc = main(["eval", str(small_run / "test.csv"),
                       "--model", name + str(small_run / "ann_model.txt"),
                       "--model", name + str(other), "--out-dir", str(out_dir)])
            assert rc == 2
            err = capsys.readouterr().err
            assert str(small_run / "ann_model.txt") in err and str(other) in err
            assert f"{column!r}" in err
            assert not (out_dir / "report.csv").exists()

    def test_model_named_as_reference_column_is_usage_error(self, small_run, tmp_path,
                                                            capsys):
        # --reference would replace this model's column with the published values.
        # The model's stem is that column's name, or its NAME is.
        for case, (file_name, name) in enumerate((
                ("C4.5 (reported, not computed).txt", ""),
                ("ann_model.txt", "C4.5 (reported, not computed)="))):
            model = tmp_path / file_name
            model.write_bytes((small_run / "ann_model.txt").read_bytes())
            out_dir = tmp_path / f"eval_{case}"
            argv = ["eval", str(small_run / "test.csv"), "--model", name + str(model),
                    "--out-dir", str(out_dir)]
            assert main(argv + ["--reference"]) == 2
            err = capsys.readouterr().err
            assert str(model) in err and "'C4.5 (reported, not computed)'" in err
            assert not (out_dir / "report.csv").exists()
            assert main(argv) == 0  # without --reference the name is free

    def test_readme_comparison_recipe_equals_two_pipelines(self, tmp_path, repo_root):
        """The README's synthetic comparison (synth, two trainings, select
        and one eval) gives the ANN and SVM columns of a select-off pipeline
        and the CFS-ANN and CFS-SVM columns of a select-on one."""
        spec = (repo_root / "configs" / "two_cluster.ini").read_text()
        spec = spec.replace("rows_per_class = 500", "rows_per_class = 60") \
                   .replace("class1_mean = 4 4 4 4", "class1_mean = 1 1 1 1")
        config = tmp_path / "small.ini"
        config.write_text(spec)
        readme = (repo_root / "README.md").read_text()
        recipe = [shlex.split(line)[1:] for line in readme.splitlines()
                  if line.startswith("flowsieve ") and "out/exp" in line]
        assert [argv[0] for argv in recipe] == ["synth", "train", "select", "train", "eval"]
        for argv in recipe:
            assert main([arg.replace("configs/two_cluster.ini", str(config))
                            .replace("out/exp", str(tmp_path / "exp")) for arg in argv]) == 0
        runs = {}
        for select in ("false", "true"):
            run_config = tmp_path / f"select_{select}.ini"
            run_config.write_text(spec.replace("enabled = true", f"enabled = {select}")
                                      .replace("classifier = ann", "classifier = both"))
            out_dir = tmp_path / f"pipeline_{select}"
            assert main(["pipeline", "--config", str(run_config), "--seed", "7",
                         "--out-dir", str(out_dir)]) == 0
            runs[select] = metrics.parse_report_csv((out_dir / "report.csv").read_text())
        for name in ("ann_model.txt", "svm_model.txt", "test.csv"):
            assert ((tmp_path / "exp" / "all" / name).read_bytes()
                    == (tmp_path / "pipeline_false" / name).read_bytes())
        report = metrics.parse_report_csv((tmp_path / "exp" / "report.csv").read_text())
        assert report == {"ANN": runs["false"]["ANN"], "CFS-ANN": runs["true"]["CFS-ANN"],
                          "SVM": runs["false"]["SVM"], "CFS-SVM": runs["true"]["CFS-SVM"],
                          metrics.C45_COLUMN_NAME: report[metrics.C45_COLUMN_NAME]}
        assert list(report) == ["ANN", "CFS-ANN", "SVM", "CFS-SVM", metrics.C45_COLUMN_NAME]
        assert report["ANN"]["overall_acc"] < 100.0  # the spec does not separate cleanly

    def test_row_far_out_warns_nothing(self, small_run, tmp_path, capsys):
        """Cells of 1e200 once overflowed the rbf kernel's squared row norm
        under a RuntimeWarning; such a row is infinitely far from every
        support vector, so its kernel values are 0. Cells of 1.7e308 and
        -1.7e308 overflow both models' products, which warn nothing either."""
        header, first, *_ = (small_run / "test.csv").read_text().splitlines()
        width = len(first.split(",")) - 1
        for case, cells in enumerate([("1e200",), ("1.7e308",), ("1.7e308", "-1.7e308")]):
            far = [",".join([cells[(row + col) % len(cells)] for col in range(width)]
                            + ["NonTor"]) for row in range(5)]
            flows, out = tmp_path / f"far{case}.csv", tmp_path / f"out{case}"
            flows.write_text("\n".join([header, *far]) + "\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["eval", str(flows), "--model", str(small_run / "svm_model.txt"),
                             "--model", str(small_run / "ann_model.txt"),
                             "--out-dir", str(out)]) == 0
            assert capsys.readouterr().err == ""

    def test_schema_mismatch_lists_missing(self, tmp_path, capsys):
        flows, train_out = self._train(tmp_path)
        narrow = tmp_path / "narrow.csv"
        ds = load_flow_csv(train_out / "test.csv")
        write_csv(ds.select_features(ds.schema[:5]), narrow)
        rc = main(["eval", str(narrow),
                   "--model", str(train_out / "ann_model.txt"),
                   "--out-dir", str(tmp_path / "eval_out")])
        assert rc == 3
        assert "missing model features" in capsys.readouterr().err


class TestSynth:
    def test_default_spec_counts(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["synth", "--out-dir", str(out_dir), "--seed", "1"]) == 0
        ds = load_flow_csv(out_dir / "synthetic_flows.csv")
        assert ds.n_examples == 1000
        assert np.bincount(ds.y).tolist() == [500, 500]
        assert ds.schema == FEATURE_COLUMNS

    def test_same_seed_identical_bytes(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["synth", "--out-dir", str(out_dir),
                         "--seed", "11"]) == 0
            outputs.append((out_dir / "synthetic_flows.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_rows_override(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["synth", "--rows-per-class", "30",
                     "--out-dir", str(out_dir), "--seed", "1"]) == 0
        ds = load_flow_csv(out_dir / "synthetic_flows.csv")
        assert ds.n_examples == 60


class TestPipeline:
    def test_end_to_end_from_config(self, tmp_path, repo_root):
        out_dir = tmp_path / "run"
        rc = main(["pipeline", "--config",
                   str(repo_root / "configs" / "two_cluster.ini"),
                   "--seed", "7", "--out-dir", str(out_dir)])
        assert rc == 0
        report = (out_dir / "report.txt").read_text()
        assert "CFS-ANN" in report
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["timings_s"]) == {"synth", "select", "train", "eval"}
        assert manifest["config"]["classifier"] == "ann"

    def test_missing_input_section_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[train]\nclassifier = ann\n")
        rc = main(["pipeline", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[input]\nsynth = true\ntypo_key = 1\n")
        rc = main(["pipeline", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("section, key, value", [
        ("svm", "max_passes", "10"), ("mlp", "mu_up", "10"), ("select", "max_subset_size", "2"),
        ("input", "packets", "packets.txt")])
    def test_removed_key_is_usage_error(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "old.ini"
        header = "" if section == "input" else f"[{section}]\n"
        cfg.write_text(f"[input]\nsynth = true\n{header}{key} = {value}\n")
        rc = main(["pipeline", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: unknown key {key!r} in [{section}]\n")

    @pytest.mark.parametrize("select, loaded", [
        ("false", ["flows.csv", "test.csv"]),
        ("true", ["flows.csv", "selected.csv", "test.csv"]),
    ])
    def test_input_parsed_once(self, tmp_path, monkeypatch, select, loaded):
        calls = spy_loads(monkeypatch)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[input]\nflows = {synth_csv(tmp_path)}\n"
                       f"[select]\nenabled = {select}\n"
                       "[mlp]\nmax_epochs = 3\n")
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert calls == loaded

    def test_unb_cic_form_gives_the_canonical_artifacts(self, tmp_path, capsys):
        published, canonical, dropped = unb_cic_csv(tmp_path)
        assert dropped == 15
        runs = {}
        for name, flows in (("published", published), ("canonical", canonical)):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(f"[input]\nflows = {flows}\nbad_value_policy = drop\n"
                           "[mlp]\nmax_epochs = 20\n")
            assert main(["pipeline", "--config", str(cfg), "--seed", "3",
                         "--out-dir", str(tmp_path / name)]) == 0
            runs[name] = capsys.readouterr().err
        assert runs == {
            "published": f"{published}: dropped {dropped} rows with non-finite "
                         "cells (bad_value_policy = drop)\n",
            "canonical": ""}
        for artifact in ("report.csv", "ann_model.txt", "test.csv"):
            assert ((tmp_path / "published" / artifact).read_bytes()
                    == (tmp_path / "canonical" / artifact).read_bytes())

    def test_unb_cic_recipe_on_the_published_form(self, tmp_path, capsys, repo_root):
        published, _, dropped = unb_cic_csv(tmp_path)
        out_dir = tmp_path / "tor"
        assert main(["pipeline", "--config", str(repo_root / "configs" / "unb_cic.ini"),
                     "--flows", str(published), "--seed", "7", "--reference",
                     "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().err == (f"{published}: dropped {dropped} rows with "
                                           "non-finite cells (bad_value_policy = drop)\n")
        report = metrics.parse_report_csv((out_dir / "report.csv").read_text())
        assert list(report) == ["CFS-ANN", metrics.C45_COLUMN_NAME]

    @pytest.mark.parametrize("section, key, value, code", [
        ("svm", "gamma", "1e308", 0), ("synth", "covariance_scale", "1e308", 3),
        ("synth", "noise_scale", "1e308", 3), ("synth", "duplicate_noise", "-1e308", 3)])
    def test_extreme_value_warns_nothing(self, tmp_path, section, key, value, code):
        """Each once printed numpy overflow RuntimeWarnings; the gamma and
        covariance_scale runs also exited 0."""
        sections = {"input": {"synth": "true"}, "synth": {"rows_per_class": "40"},
                    "train": {"classifier": "both"}}
        sections.setdefault(section, {})[key] = value
        cfg = write_ini(tmp_path / "run.ini", sections)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pipeline", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == code

    def test_sgd_batch_larger_than_the_training_split(self, tmp_path):
        """Both sizes exceed the training split, so each epoch is the same one
        batch; a workspace sized by batch_size rather than the split cannot be
        allocated at 10**12 rows."""
        models = []
        for batch_size in ("100000", "1000000000000"):
            cfg = tmp_path / f"batch_{batch_size}.ini"
            cfg.write_text("[input]\nsynth = true\n[synth]\nrows_per_class = 40\n"
                           f"[mlp]\nmode = bp-sgd\nmax_epochs = 5\nbatch_size = {batch_size}\n")
            out_dir = tmp_path / batch_size
            assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
            models.append((out_dir / "ann_model.txt").read_bytes())
        assert models[0] == models[1]


class TestTrainingDataReleased:
    """When training starts, the loaded rows and the unscaled train and val
    splits are gone: the process holds only the splits the models use."""

    @pytest.mark.parametrize("command, select", [
        ("train", "true"), ("train", "false"),
        ("pipeline", "true"), ("pipeline", "false"),
    ])
    def test_dead_when_training_starts(self, tmp_path, monkeypatch, command,
                                       select):
        from flowsieve import cli

        load, split, train = cli.load_flow_csv, cli.stratified_split, cli._train_models
        watched, alive_at_train = [], []  # weakrefs; (watched, alive) per train

        def watched_load(*args):
            ds = load(*args)
            watched.append(weakref.ref(ds.X))
            return ds

        def watched_split(*args):
            parts = split(*args)
            watched.extend(weakref.ref(part.X) for part in parts[:2])
            return parts

        def checked_train(*args):
            alive_at_train.append(
                (len(watched), sum(ref() is not None for ref in watched)))
            return train(*args)

        monkeypatch.setattr(cli, "load_flow_csv", watched_load)
        monkeypatch.setattr(cli, "stratified_split", watched_split)
        monkeypatch.setattr(cli, "_train_models", checked_train)
        flows = synth_csv(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[input]\nflows = {flows}\n[select]\nenabled = {select}\n"
                       "[mlp]\nmax_epochs = 3\n")
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        assert main(argv + ([str(flows)] if command == "train" else [])) == 0
        loads = 2 if (command, select) == ("pipeline", "true") else 1
        assert alive_at_train == [(loads + 2, 0)]


SMALL_RUN_INI = """\
[input]
synth = true
[synth]
rows_per_class = 40
[train]
classifier = both
[mlp]
max_epochs = 20
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Output directory of a small `pipeline` run that trains both models."""
    root = tmp_path_factory.mktemp("small_run")
    cfg = root / "run.ini"
    cfg.write_text(SMALL_RUN_INI)
    assert main(["pipeline", "--config", str(cfg), "--seed", "3",
                 "--out-dir", str(root / "out")]) == 0
    return root / "out"


def test_readme_names_the_current_model_formats():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    named = set(re.findall(r"flowsieve-(?:mlp|svm) \d+", readme))
    assert named == {mlp.MODEL_FORMAT, svm.MODEL_FORMAT}


def _recipes(repo_root) -> list[str]:
    """Every `flowsieve ...` line in README's code blocks and in the
    comments of configs/*.ini."""
    lines, in_block = [], False
    for line in (repo_root / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("flowsieve "):
            lines.append(line)
    for config in sorted((repo_root / "configs").glob("*.ini")):
        lines += [line.lstrip("# ") for line in config.read_text().splitlines()
                  if re.match(r"#\s+flowsieve ", line)]
    return lines


def test_readme_and_config_recipes_parse(repo_root):
    """A removed flag must not leave a recipe that no longer runs."""
    from flowsieve.cli import build_parser

    recipes = _recipes(repo_root)
    assert len(recipes) >= 14
    for line in recipes:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"recipe does not parse: {line}")


class TestManifestFormats:
    MODELS = {"ann_model.txt": "flowsieve-mlp 1",
              "ann_history.csv": "ann-history-csv 1",
              "svm_model.txt": "flowsieve-svm 2",
              "test.csv": "flow-csv 1"}

    @staticmethod
    def formats(out_dir):
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return {name: entry["format"]
                for name, entry in manifest["artifacts"].items()}

    def test_train(self, tmp_path):
        flows = synth_csv(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["train", str(flows), "--classifier", "both",
                     "--out-dir", str(out_dir), "--seed", "3"]) == 0
        assert self.formats(out_dir) == self.MODELS

    def test_pipeline(self, small_run):
        assert self.formats(small_run) == {
            **self.MODELS,
            "synthetic_flows.csv": "flow-csv 1",
            "selected.csv": "flow-csv 1",
            "selection.txt": "report 1",
            "correlation_matrix.csv": "report 1",
            "report.txt": "report 1",
            "report.csv": "report 1",
        }


class TestBadModelFiles:
    """Malformed model files end in exit 3 naming the file, never a traceback."""

    @staticmethod
    def run_eval(small_run, model_path, tmp_path):
        return main(["eval", str(small_run / "test.csv"),
                     "--model", str(model_path),
                     "--out-dir", str(tmp_path / "eval_out")])

    def assert_data_error(self, small_run, tmp_path, capsys, text):
        path = tmp_path / "bad_model.txt"
        path.write_text(text)
        capsys.readouterr()
        assert self.run_eval(small_run, path, tmp_path) == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["ann_model.txt", "svm_model.txt"])
    def test_every_truncation_exits_cleanly(self, small_run, tmp_path, name):
        data = (small_run / name).read_bytes()
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        starts = [0] + ends[:-1]
        inside = {cut for start, end in zip(starts, ends)
                  for cut in (start + 1, (start + end) // 2, end - 2)
                  if start < cut < end - 1}
        path = tmp_path / name
        for cut in sorted(set(ends[:-1]) | {0} | inside):
            path.write_bytes(data[:cut])
            rc = self.run_eval(small_run, path, tmp_path)
            if cut in ends or cut == 0:
                assert rc == 3, f"cut at line boundary {cut}"
            else:
                assert rc in (0, 3), f"cut at byte {cut}"

    @pytest.mark.parametrize("name", ["ann_model.txt", "svm_model.txt"])
    def test_cut_inside_header(self, small_run, tmp_path, capsys, name):
        text = (small_run / name).read_text()
        cut = text.index("features ") + len("features sr")
        self.assert_data_error(small_run, tmp_path, capsys, text[:cut])

    def test_cut_inside_mlp_block(self, small_run, tmp_path, capsys):
        text = (small_run / "ann_model.txt").read_text()
        lines = text.splitlines(keepends=True)
        w1_row = lines.index("w1\n") + 2
        self.assert_data_error(small_run, tmp_path, capsys,
                               "".join(lines[:w1_row]))

    def test_cut_before_last_mlp_block(self, small_run, tmp_path, capsys):
        text = (small_run / "ann_model.txt").read_text()
        self.assert_data_error(small_run, tmp_path, capsys,
                               text[:text.index("\nb2\n") + 1])

    def test_cut_inside_svm_block(self, small_run, tmp_path, capsys):
        text = (small_run / "svm_model.txt").read_text()
        self.assert_data_error(small_run, tmp_path, capsys,
                               text[:text.index("\nend\n") + 1])

    def test_repeated_svm_block(self, small_run, tmp_path, capsys):
        text = (small_run / "svm_model.txt").read_text()
        TestDeclaredClasses.eval_rejects(small_run, tmp_path, capsys,
                                         text + text[text.index("\nkernel ") + 1:],
                                         text.count("\n") + 1)

    @pytest.mark.parametrize("extra", ["\n", "end\n", "kernel linear\n",
                                       "sv 1 2 3\n", "model 1"])
    def test_line_after_svm_end(self, small_run, tmp_path, capsys, extra):
        text = (small_run / "svm_model.txt").read_text()
        TestDeclaredClasses.eval_rejects(small_run, tmp_path, capsys,
                                         text + extra, text.count("\n") + 1)

    @pytest.mark.parametrize("name, old, new", [
        ("ann_model.txt", "features ", "featurse "),
        ("ann_model.txt", "classes ", "classes\t"),
        ("ann_model.txt", "layout ", "layout x"),
        ("svm_model.txt", "scaler_std ", "scaler_std 1 "),
        ("svm_model.txt", "kernel rbf ", "kernel rbf x"),
    ])
    def test_mangled_header_line(self, small_run, tmp_path, capsys,
                                 name, old, new):
        text = (small_run / name).read_text()
        self.assert_data_error(small_run, tmp_path, capsys,
                               text.replace(old, new, 1))

    @pytest.mark.parametrize("name, after", [
        ("ann_model.txt", "\nw2\n"),
        ("svm_model.txt", "\nsv "),
    ])
    def test_non_numeric_parameter_cell(self, small_run, tmp_path, capsys,
                                        name, after):
        text = (small_run / name).read_text()
        start = text.index(after) + len(after)
        end = start + text[start:].index(" ")
        self.assert_data_error(small_run, tmp_path, capsys,
                               text[:start] + "0.5x" + text[end:])

    @pytest.mark.parametrize("name, after, cell", [
        ("svm_model.txt", "\nbias ", "nan"),
        ("ann_model.txt", "\nw2\n", "inf"),
    ])
    def test_non_finite_parameter_names_its_line(self, small_run, tmp_path, capsys,
                                                 name, after, cell):
        text = (small_run / name).read_text()
        start = text.index(after) + len(after)
        end = start + len(re.match(r"[^ \n]*", text[start:]).group())
        TestDeclaredClasses.eval_rejects(small_run, tmp_path, capsys,
                                         text[:start] + cell + text[end:],
                                         text[:start].count("\n") + 1)

    @pytest.mark.parametrize("name", ["ann_model.txt", "svm_model.txt"])
    def test_repeated_feature_names_line_2(self, small_run, tmp_path, capsys, name):
        lines = (small_run / name).read_text().splitlines(keepends=True)
        key, text = lines[1].split()
        names = text.split(",")
        assert key == "features" and len(names) >= 2
        names[1] = names[0]
        lines[1] = f"features {','.join(names)}\n"
        TestDeclaredClasses.eval_rejects(small_run, tmp_path, capsys,
                                         "".join(lines), 2)

    def test_line_after_mlp_b2_block(self, small_run, tmp_path, capsys):
        text = (small_run / "ann_model.txt").read_text()
        TestDeclaredClasses.eval_rejects(small_run, tmp_path, capsys,
                                         text + "b2\n", text.count("\n") + 1)

    @pytest.mark.parametrize("name", ["ann_model.txt", "svm_model.txt"])
    def test_model_without_scaler_lines(self, small_run, tmp_path, capsys, name):
        """A model file carries its training scaler: one without the three
        scaler_* lines is a data error at line 4, not a model run on
        unscaled rows."""
        lines = (small_run / name).read_text().splitlines(keepends=True)
        assert [line.split()[0] for line in lines[3:6]] == [
            "scaler_mean", "scaler_std", "scaler_passthrough"]
        path = tmp_path / name
        path.write_text("".join(lines[:3] + lines[6:]))
        capsys.readouterr()
        assert self.run_eval(small_run, path, tmp_path) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}:4: expected a 'scaler_mean' line, "
            f"got {lines[6].rstrip()[:40]!r}\n")

    def test_svm_format_1_names_line_1(self, small_run, tmp_path, capsys):
        # Format 1 held one block per class, each opened by a `model` line.
        lines = (small_run / "svm_model.txt").read_text().splitlines()
        assert lines[0] == "flowsieve-svm 2"
        body = next(i for i, line in enumerate(lines) if line.startswith("kernel "))
        text = "\n".join(["flowsieve-svm 1", *lines[1:body], "model 0",
                          *lines[body:], "model 1", *lines[body:]]) + "\n"
        TestDeclaredClasses.eval_rejects(small_run, tmp_path, capsys, text, 1)


class TestDeclaredClasses:
    """Inputs that contradict the two declared classes, NonTor and Tor, end
    in exit 2 or 3 naming the input, and no model is written."""

    @staticmethod
    def eval_rejects(small_run, tmp_path, capsys, text, line):
        path = tmp_path / "bad_model.txt"
        path.write_text(text)
        capsys.readouterr()
        assert TestBadModelFiles.run_eval(small_run, path, tmp_path) == 3
        assert f"data error: {path}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["ann_model.txt", "svm_model.txt"])
    @pytest.mark.parametrize("classes", ["Tor,NonTor", "nonTor,Tor",
                                         "Benign,Tor", "NonTor,Tor,Other"])
    def test_classes_line_must_be_declared_classes(self, small_run, tmp_path,
                                                   capsys, name, classes):
        text = (small_run / name).read_text()
        assert text.splitlines()[2] == "classes NonTor,Tor"
        self.eval_rejects(small_run, tmp_path, capsys,
                          text.replace("classes NonTor,Tor", f"classes {classes}"), 3)

    def test_mlp_with_three_outputs(self, small_run, tmp_path, capsys):
        # A whole 3-output network: the layout, a third w2 row and b2 value.
        lines = (small_run / "ann_model.txt").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("layout "))
        lines[at] = lines[at][:-1] + "3"
        b2 = lines.index("b2")
        lines[b2 - 1:b2] = [lines[b2 - 1]] * 2
        lines[-1] += " 0"
        self.eval_rejects(small_run, tmp_path, capsys, "\n".join(lines) + "\n",
                          at + 1)

    def test_svm_with_a_third_block(self, small_run, tmp_path, capsys):
        # As a three-class file might be written: one more class, and one
        # more block after `end`.
        text = (small_run / "svm_model.txt").read_text()
        third = text[text.index("\nkernel ") + 1:]
        self.eval_rejects(small_run, tmp_path, capsys,
                          text.replace("classes NonTor,Tor", "classes NonTor,Tor,Other")
                          + third, 3)

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    @pytest.mark.parametrize("kept", [0, 2])
    def test_too_few_rows_of_a_class(self, tmp_path, capsys, command, kept):
        lines = synth_csv(tmp_path).read_text().splitlines()
        tor = [line for line in lines[1:] if line.endswith(",Tor")]
        flows = tmp_path / "one_class.csv"
        flows.write_text("\n".join([lines[0]] + tor[:kept] + [
            line for line in lines[1:] if line.endswith(",NonTor")]) + "\n")
        out_dir = tmp_path / "out"
        if command == "train":
            argv = ["train", str(flows), "--classifier", "ann"]
        else:
            cfg = tmp_path / "run.ini"
            cfg.write_text(f"[input]\nflows = {flows}\n")
            argv = ["pipeline", "--config", str(cfg)]
        assert main(argv + ["--out-dir", str(out_dir)]) == 3
        # pipeline selects first, and a table of one class stops selection
        reason = ("selection needs rows of both classes, got only NonTor rows"
                  if command == "pipeline" and kept == 0 else
                  f"class Tor has {kept} rows, fewer than 3; "
                  "training needs at least 3 of each class")
        assert capsys.readouterr().err == f"data error: {flows}: {reason}\n"
        assert not (out_dir / "ann_model.txt").exists()

    @pytest.mark.parametrize("classifier", ["ann", "both"])
    def test_class_without_a_training_row(self, tmp_path, capsys, classifier):
        # 4 rows per class at train = 0.1: NonTor gets the one leftover
        # training seat, and Tor none.
        flows = synth_csv(tmp_path, rows=8)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[split]\ntrain = 0.1\nvalidation = 0.1\ntest = 0.8\n")
        out_dir = tmp_path / "out"
        assert main(["train", str(flows), "--classifier", classifier,
                     "--config", str(cfg), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {flows}: class Tor has 4 rows and none falls in the "
            "training split at train = 0.1\n")
        assert not (out_dir / "ann_model.txt").exists()

    @pytest.mark.parametrize("label_args", [[], ["--label", "Unlabeled"]])
    def test_meter_needs_a_declared_label(self, tmp_path, capsys, label_args):
        # The label is checked before the capture, which here is not text.
        path = tmp_path / "packets.txt"
        path.write_bytes(b"\xff\n")
        assert main(["meter", str(path), *label_args,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "[input] label" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["select"], ["train"], ["train", "--classifier", "svm"]],
                         ids=["select", "train", "train-svm"])
def test_flow_csv_without_features_is_data_error(tmp_path, capsys, argv):
    path = tmp_path / "labels_only.csv"
    path.write_text("label\n" + "NonTor\nTor\n" * 4)
    out_dir = tmp_path / "out"
    assert main([argv[0], str(path), *argv[1:], "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {path}: no feature columns before 'label'\n")
    assert not (out_dir / "selected.csv").exists()


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a data error naming the file and the
    line, also past the reader's first decoded chunk."""

    def test_packet_file(self, tmp_path, capsys):
        lines = [f"{i * 1000},10.0.0.1,443,10.0.0.2,5555,6,100" for i in range(1000)]
        lines[699] = lines[699].replace("443", "4\xff3")
        path = tmp_path / "packets.txt"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        assert main(["meter", str(path), "--label", "Tor",
                     "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: line 700: not UTF-8 text\n")

    def test_flow_csv(self, tmp_path, capsys):
        path = synth_csv(tmp_path)
        data = path.read_bytes()
        at = [i for i, byte in enumerate(data) if byte == ord("\n")][99] - 1
        path.write_bytes(data[:at] + b"\xc3" + data[at + 1:])  # a cut-off sequence
        assert len(data) > 8192
        assert main(["select", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: line 100: not UTF-8 text\n")


class TestLongField:
    """A header field longer than csv's limit of 131,072 characters is a data
    error naming the file and the line. A data row has no such limit in
    either reader, so a long cell gives the error any cell of its value
    gives. Each error is the reference loader's, and the manifest records it."""

    @pytest.mark.parametrize("where, line", [("header", 1), ("cell", 2)])
    def test_select(self, tmp_path, capsys, where, line):
        long = "9" * 200_000
        path = tmp_path / "flows.csv"
        path.write_text({"header": f"src_ip,dst_ip,{long},label\n1,2,3,Tor\n",
                         "cell": f"src_ip,dst_ip,idle_min,label\n1,{long},3,Tor\n"}[where])
        out_dir = tmp_path / "out"
        assert main(["select", str(path), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {path}: " + {
            "header": f"line {line}: field larger than field limit (131072)\n",
            "cell": f"row {line} column 2 (dst_ip): non-finite value '{long}'\n"}[where]
        with pytest.raises(DataError) as reference:
            oracle_load_flow_csv(path)
        assert err == f"data error: {reference.value}\n"
        manifest = checked_manifest(out_dir)
        assert (manifest["exit_code"], manifest["error"] + "\n") == (3, err)

    @pytest.mark.parametrize("idle_min, code, err", [
        ("4", 0, ""),
        ("inf", 3, "data error: {path}: row 3 column 3 (idle_min): non-finite value 'inf'\n"),
    ], ids=["finite", "inf"])
    def test_long_cell_does_not_change_another_rows_error(self, tmp_path, capsys,
                                                          idle_min, code, err):
        """A long cell read as a finite number loads; an inf in the next row
        is that row's error under either reader, not the long cell's line."""
        path = tmp_path / "flows.csv"
        path.write_text("src_ip,dst_ip,idle_min,label\n"
                        f"1,{'0' * 200_000}1,3,Tor\n2,5,{idle_min},NonTor\n"
                        "3,6,7,Tor\n4,8,1,NonTor\n")
        out_dir = tmp_path / "out"
        assert main(["select", str(path), "--out-dir", str(out_dir)]) == code
        assert capsys.readouterr().err == err.format(path=path)
        if code:
            with pytest.raises(DataError) as reference:
                oracle_load_flow_csv(path)
            assert err.format(path=path) == f"data error: {reference.value}\n"
        else:
            assert oracle_load_flow_csv(path).X[0, 1] == load_flow_csv(path).X[0, 1] == 1.0
        assert checked_manifest(out_dir)["exit_code"] == code


class TestUnreadableInput:
    """An input whose open raises an OSError is a usage error naming it, like
    an out dir that cannot be written, and the manifest records the exit
    and no digest for that input."""

    @pytest.mark.parametrize("command", ["meter", "select", "eval"])
    def test_permission_denied(self, tmp_path, capsys, monkeypatch, command):
        flows = synth_csv(tmp_path)
        packets = tmp_path / "packets.txt"
        packets.write_text(TEN_PACKETS)
        model = tmp_path / "model.txt"
        model.write_text("")
        argv, denied = {"meter": ([command, str(packets), "--label", "Tor"], packets),
                        "select": ([command, str(flows)], flows),
                        "eval": ([command, str(flows), "--model", str(model)], model)}[command]
        real_open = open

        def refusing_open(file, *args, **kwargs):
            if str(file) == str(denied):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", refusing_open)
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read {denied}: Permission denied\n"
        monkeypatch.undo()
        manifest = checked_manifest(out_dir)
        assert (manifest["exit_code"], manifest["error"] + "\n") == (2, err)
        assert manifest["inputs"][str(denied)] is None
        assert manifest["artifacts"] == {}


class TestManifestContract:
    """What each command records: its name and seed, the inputs it read,
    each artifact's format and digest, and the stages it timed."""

    SELECTED = ["selected.csv", "selection.txt", "correlation_matrix.csv"]
    TRAINED = ["ann_model.txt", "ann_history.csv", "test.csv"]
    REPORTS = ["report.txt", "report.csv"]

    @classmethod
    def run_of(cls, command, tmp_path, packet_file, small_run):
        """(argv, inputs, artifacts, stages) of one recorded command."""
        if command == "meter":
            return (["meter", str(packet_file), "--label", "Tor"], [packet_file],
                    ["flows.csv"], {"meter"})
        if command == "select":
            flows = synth_csv(tmp_path)
            return ["select", str(flows)], [flows], cls.SELECTED, {"select"}
        if command == "train":
            flows = synth_csv(tmp_path)
            return (["train", str(flows), "--classifier", "both"], [flows],
                    cls.TRAINED + ["svm_model.txt"], {"train"})
        if command == "eval":
            inputs = [small_run / name for name in
                      ("test.csv", "ann_model.txt", "svm_model.txt")]
            return (["eval", str(inputs[0]), "--model", str(inputs[1]),
                     "--model", str(inputs[2])], inputs, cls.REPORTS, {"eval"})
        if command == "synth":
            return ["synth"], [], ["synthetic_flows.csv"], {"synth"}
        cfg = tmp_path / "run.ini"
        if command == "pipeline-flows":
            flows = synth_csv(tmp_path)
            cfg.write_text(f"[input]\nflows = {flows}\n[mlp]\nmax_epochs = 3\n")
            return (["pipeline", "--config", str(cfg)], [flows],
                    cls.SELECTED + cls.TRAINED + cls.REPORTS,
                    {"select", "train", "eval"})
        if command == "pipeline-select-off":
            flows = synth_csv(tmp_path)
            cfg.write_text(f"[input]\nflows = {flows}\n[select]\nenabled = false\n"
                           "[mlp]\nmax_epochs = 3\n")
            return (["pipeline", "--config", str(cfg)], [flows],
                    cls.TRAINED + cls.REPORTS, {"train", "eval"})
        cfg.write_text(SMALL_RUN_INI)
        return (["pipeline", "--config", str(cfg)], [],
                ["synthetic_flows.csv"] + cls.SELECTED + cls.TRAINED
                + ["svm_model.txt"] + cls.REPORTS,
                {"synth", "select", "train", "eval"})

    @pytest.mark.parametrize("command", ["meter", "select", "train", "eval", "synth",
                                         "pipeline-flows", "pipeline-select-off",
                                         "pipeline-synth"])
    def test_manifest(self, command, tmp_path, packet_file, small_run):
        from flowsieve.cli import ARTIFACT_FORMATS

        argv, inputs, artifacts, stages = self.run_of(command, tmp_path,
                                                      packet_file, small_run)
        out_dir = tmp_path / "out"
        assert main(argv + ["--seed", "5", "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert (manifest["exit_code"], manifest["error"]) == (0, None)
        assert manifest["seed"] == 5
        assert manifest["inputs"] == {str(p): sha256_of(p) for p in inputs}
        assert manifest["artifacts"] == {
            name: {"format": ARTIFACT_FORMATS[name], "sha256": sha256_of(out_dir / name)}
            for name in artifacts}
        assert set(manifest["timings_s"]) == stages

    @pytest.mark.parametrize("command", ["meter", "select", "train", "eval-flows",
                                         "eval-model"])
    def test_missing_input_is_reported_before_the_config(self, command, tmp_path,
                                                         capsys):
        missing = tmp_path / "absent.csv"
        present = tmp_path / "present.csv"
        present.write_text("not read\n")
        argv = {"meter": ["meter", str(missing), "--label", "Tor"],
                "select": ["select", str(missing)],
                "train": ["train", str(missing)],
                "eval-flows": ["eval", str(missing), "--model", str(present)],
                "eval-model": ["eval", str(present), "--model", str(missing)],
                }[command]
        out_dir = tmp_path / "out"
        assert main(argv + ["--config", str(tmp_path / "absent.ini"),
                            "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: input file not found: {missing}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("shape", ["device", "directory", "fifo"])
    def test_input_that_is_not_a_regular_file(self, tmp_path, capsys, shape):
        """Named before the config is read. The FIFO is only stat'ed: opening
        it would wait for a writer."""
        path = {"device": Path(os.devnull), "directory": tmp_path / "dir",
                "fifo": tmp_path / "fifo"}[shape]
        if shape == "directory":
            path.mkdir()
        elif shape == "fifo":
            os.mkfifo(path)
        out_dir = tmp_path / "out"
        assert main(["meter", str(path), "--label", "Tor", "--config",
                     str(tmp_path / "absent.ini"), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not a regular file\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["select", "pipeline"])
    def test_input_digest_is_taken_before_the_first_stage(self, tmp_path, repo_root,
                                                          command):
        """A run whose input is the selected.csv it rewrites records the
        input as it read it, not as it left it."""
        out_dir = tmp_path / "D"
        two_cluster = str(repo_root / "configs" / "two_cluster.ini")
        assert main(["synth", "--config", two_cluster, "--seed", "7",
                     "--out-dir", str(out_dir)]) == 0
        flows = out_dir / "selected.csv"
        shutil.copyfile(out_dir / "synthetic_flows.csv", flows)
        before = sha256_of(flows)
        cfg = two_cluster if command == "select" else str(write_ini(
            tmp_path / "run.ini", {"input": {"flows": str(flows)}, "mlp": {"max_epochs": "3"}}))
        argv = ["select", str(flows)] if command == "select" else ["pipeline"]
        assert main(argv + ["--config", cfg, "--out-dir", str(out_dir)]) == 0
        manifest = checked_manifest(out_dir)
        assert manifest["inputs"] == {str(flows): before}
        assert manifest["artifacts"]["selected.csv"]["sha256"] != before


SELECTED = {"selected.csv", "selection.txt", "correlation_matrix.csv"}


def checked_manifest(out_dir) -> dict:
    """out_dir's manifest, once each artifact it lists matches its digest."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name, entry in manifest["artifacts"].items():
        assert entry["sha256"] == sha256_of(out_dir / name), name
    return manifest


def run_pipeline_on(flows, tmp_path, out_dir, **mlp_keys) -> int:
    cfg = write_ini(tmp_path / "run.ini", {"input": {"flows": str(flows)},
                                           "train": {"classifier": "both"},
                                           "mlp": {"max_epochs": "3", **mlp_keys}})
    return main(["pipeline", "--config", str(cfg), "--out-dir", str(out_dir)])


class TestManifestOnEveryExit:
    """A run that has made its out dir removes the manifest there first and
    writes its own however it ends: its exit code and stderr line, and only
    the artifacts it finished writing."""

    def test_failed_rerun_lists_only_its_own_files(self, tmp_path, capsys):
        out_dir = tmp_path / "D"
        assert run_pipeline_on(synth_csv(tmp_path), tmp_path, out_dir) == 0
        first = checked_manifest(out_dir)
        flows = two_tor_rows(tmp_path)
        capsys.readouterr()
        assert run_pipeline_on(flows, tmp_path, out_dir) == 3
        err = capsys.readouterr().err
        manifest = checked_manifest(out_dir)
        assert (manifest["exit_code"], manifest["error"] + "\n") == (3, err)
        assert err.startswith(f"data error: {flows}: ")
        assert manifest["inputs"] == {str(flows): sha256_of(flows)}
        assert set(manifest["artifacts"]) == SELECTED
        assert set(manifest["timings_s"]) == {"select"}
        stale = set(first["artifacts"]) - SELECTED
        assert stale == {"ann_model.txt", "ann_history.csv", "svm_model.txt", "test.csv",
                         "report.txt", "report.csv"}
        assert all((out_dir / name).is_file() for name in stale)

    @pytest.mark.parametrize("code, diverges", [(0, False), (2, False), (3, False),
                                                (3, True)], ids=["0", "2", "3", "3-diverged"])
    def test_every_exit_writes_a_manifest(self, tmp_path, capsys, monkeypatch, code,
                                          diverges):
        """Exit 2 from an `[mlp] hidden` over its budget, and exit 3 from a
        split with two Tor rows or from a trainer whose validation loss is
        NaN, each after select has written its files."""
        if diverges:
            monkeypatch.setattr(mlp, "loss", lambda *args: np.nan)
        flows = two_tor_rows(tmp_path) if code == 3 and not diverges else synth_csv(tmp_path)
        out_dir = tmp_path / "out"
        hidden = {"hidden": "1000000"} if code == 2 else {}
        assert run_pipeline_on(flows, tmp_path, out_dir, **hidden) == code
        err = capsys.readouterr().err
        manifest = checked_manifest(out_dir)
        assert (manifest["exit_code"], manifest["error"]) == (code, err.rstrip("\n") or None)
        assert err.startswith({0: "", 2: "error: [mlp] hidden = 1000000 on ",
                               3: f"data error: {flows}: "}[code])
        if diverges:
            assert err.endswith(": training diverged at epoch 0: "
                                "non-finite loss or parameters\n")
        if code:
            assert set(manifest["artifacts"]) == SELECTED
            assert set(manifest["timings_s"]) == {"select"}
        else:
            assert set(manifest["artifacts"]) > SELECTED | {"report.csv"}
            assert set(manifest["timings_s"]) == {"select", "train", "eval"}


def outlier_table(tmp_path) -> Path:
    """A 400-row synth_csv table whose first 5 rows have every feature cell
    set to +1e6 or -1e6."""
    ds = load_flow_csv(synth_csv(tmp_path, "synth.csv", rows=400))
    X = ds.X.copy()
    X[:5] = np.where(np.arange(ds.n_features) % 2, -1e6, 1e6)
    path = tmp_path / "outliers.csv"
    write_csv(Dataset(ds.schema, X, ds.y), path)
    return path


@pytest.mark.parametrize("table", ["synth-select-off", "outliers"])
@pytest.mark.parametrize("batch_size", ["1", "32"])
@pytest.mark.parametrize("learning_rate", ["1e308", "1.7e308"])
def test_sgd_at_the_float_limit_ends_in_a_documented_exit(tmp_path, capsys, table,
                                                           batch_size, learning_rate):
    """SGD at a learning rate near the largest float saturates both layers, so
    its gradients vanish, or meets an inf - inf that gives NaN; it exits 0,
    or 3 naming the flow table, and the manifest records the exit."""
    mlp_keys = {"mode": "bp-sgd", "learning_rate": learning_rate,
                "batch_size": batch_size, "max_epochs": "3"}
    if table == "outliers":
        flows = outlier_table(tmp_path)
        sections = {"input": {"flows": str(flows)}}
    else:
        flows = tmp_path / "out" / "synthetic_flows.csv"
        sections = {"input": {"synth": "true"}, "select": {"enabled": "false"}}
    config = write_ini(tmp_path / "run.ini", {**sections, "mlp": mlp_keys})
    rc = main(["pipeline", "--config", str(config), "--seed", "7",
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc in (0, 3), err
    if rc == 3:
        assert err.startswith(f"data error: {flows}: training diverged at epoch "), err
    assert checked_manifest(tmp_path / "out")["exit_code"] == rc


class TestOutDirFaults:
    """An out dir that cannot be made, or an artifact that cannot be written
    there, is a usage error naming the path, not a traceback."""

    @pytest.mark.parametrize("shape, reason", [("file", "File exists"),
                                               ("under-file", "Not a directory"),
                                               ("vanished-parent",
                                                "No such file or directory")])
    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys, monkeypatch, shape,
                                         reason):
        flows = synth_csv(tmp_path)
        (tmp_path / "a_file").write_text("")
        out_dir = {"file": tmp_path / "a_file", "under-file": tmp_path / "a_file" / "out",
                   "vanished-parent": Path("out")}[shape]
        if shape == "vanished-parent":  # the working directory is removed
            (tmp_path / "gone").mkdir()
            monkeypatch.chdir(tmp_path / "gone")
            (tmp_path / "gone").rmdir()
        assert main(["select", str(flows), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out_dir}: {reason}\n"

    @pytest.mark.parametrize("name", ["report.csv", "manifest.json"])
    def test_directory_with_an_artifacts_name(self, tmp_path, capsys, name):
        out_dir = tmp_path / "out"
        (out_dir / name).mkdir(parents=True)
        assert run_pipeline_on(synth_csv(tmp_path), tmp_path, out_dir) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out_dir / name}: Is a directory\n"
        if name == "manifest.json":  # stopped before the first stage
            assert [path.name for path in out_dir.iterdir()] == [name]
        else:
            manifest = checked_manifest(out_dir)
            assert (manifest["exit_code"], manifest["error"] + "\n") == (2, err)
            assert "report.txt" in manifest["artifacts"] and name not in manifest["artifacts"]


# Runs a metering command and a pipeline that trains both models under
# perfbench's tracer; prints the names of the spans it recorded.
TRACED_RUN = """\
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import tracing
from flowsieve import cli
tracer = tracing.Tracer(0)
tracing.install(tracer)
out = sys.argv[2]
assert cli.main(["meter", sys.argv[3], "--label", "Tor", "--out-dir", out]) == 0
assert cli.main(["pipeline", "--config", sys.argv[4], "--out-dir", out]) == 0
print(json.dumps(sorted({span["name"] for span in tracer.spans})))
"""


def test_every_name_the_tracer_wraps_on_cli_is_called_through_cli(
        tmp_path, packet_file, repo_root):
    """perfbench's tracer replaces these `cli` globals; a call through a
    reference taken at import time would skip its span without a word."""
    install = (repo_root / "perfbench" / "tracing.py").read_text()
    wrapped = dict(re.findall(r'\(cli, "(\w+)", "([\w.]+)"', install))
    assert {"run_meter", "run_eval", "load_config", "write_manifest"} <= set(wrapped)
    config = (repo_root / "configs" / "two_cluster.ini").read_text()
    assert "classifier = ann\n" in config
    cfg = tmp_path / "both.ini"
    cfg.write_text(config.replace("classifier = ann\n", "classifier = both\n"))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(repo_root), str(tmp_path / "out"),
         str(packet_file), str(cfg)],
        capture_output=True, text=True, check=True)
    recorded = set(json.loads(run.stdout.splitlines()[-1]))
    assert sorted(set(wrapped.values()) - recorded) == []


CHILD_MAIN = """\
import sys
sys.path.insert(0, sys.argv[1] + "/src")
from flowsieve import cli
code = cli.main(sys.argv[2:])
print("numpy.ma" in sys.modules)
sys.exit(code)
"""


def run_child(repo_root, *argv: str, address_space: int | None = None,
              env: dict[str, str] | None = None,
              timeout: float | None = None) -> subprocess.CompletedProcess:
    """`flowsieve *argv` in a fresh process, its address space limited to
    `address_space` bytes, `env` laid over this process's environment and its
    wall time limited to `timeout` seconds if given; its last stdout line
    says whether numpy.ma was imported."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, "-c", CHILD_MAIN, str(repo_root), *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=None if env is None else {**os.environ, **env},
                          preexec_fn=limit if address_space else None)


def test_pipeline_bytes_do_not_depend_on_blas_threads(tmp_path, repo_root):
    """Only LM holds OpenBLAS at one thread. CFS, SGD, SMO and prediction
    run under the caller's count, and a select + bp-sgd + svm pipeline
    writes the same bytes under one thread and two. Skipped where the
    manifests do not record those two counts (no OpenBLAS found)."""
    cfg = tmp_path / "sgd_svm.ini"
    cfg.write_text("[input]\nsynth = true\n[synth]\nrows_per_class = 500\n"
                   "[train]\nclassifier = both\n"
                   "[mlp]\nmode = bp-sgd\nmax_epochs = 20\npatience = 20\n"
                   "[svm]\nc = 0.1\ntolerance = 0.1\n")
    names = ("selected.csv", "ann_model.txt", "ann_history.csv", "svm_model.txt",
             "test.csv", "report.csv")
    written = {}
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads_{threads}"
        run = run_child(repo_root, "pipeline", "--config", str(cfg), "--seed", "5",
                        "--out-dir", str(out_dir), env={"OPENBLAS_NUM_THREADS": threads})
        assert run.returncode == 0, run.stderr
        recorded = json.loads((out_dir / "manifest.json").read_text())["environment"]
        if recorded["blas_threads"] != int(threads):
            pytest.skip(f"OPENBLAS_NUM_THREADS={threads} ran {recorded['blas_threads']}")
        written[threads] = {name: (out_dir / name).read_bytes() for name in names}
    assert written["1"] == written["2"]


def test_mlp_over_the_cell_budget_is_usage_error(tmp_path, repo_root):
    """hidden = 2000 on the 4 features selected gives P = 14002 parameters,
    so LM's P x P JᵀJ would take 1.46 GiB; under a 4 GB address-space limit
    that allocation once ended in a MemoryError traceback."""
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[input]\nsynth = true\n[synth]\nrows_per_class = 60\n"
                   "[mlp]\nhidden = 2000\n")
    run = run_child(repo_root, "pipeline", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out"), address_space=4 * 1024 ** 3)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert "error: [mlp] hidden = 2000 on 4 features gives P = 14002 parameters" \
        in run.stderr
    assert not (tmp_path / "out" / "ann_model.txt").exists()


def test_sgd_forward_pass_over_the_cell_budget_is_usage_error(tmp_path, repo_root):
    """hidden = 2,000,000 gives P = 14,000,002 on the 4 features selected, within
    SGD's budget, but the full-split forward pass over the 84 training rows
    would hold 1.68e8 activations (1.3 GB). Unchecked, training starts and,
    under a 2 GB address-space limit, ends in a MemoryError traceback within
    seconds (without the limit it ran on past 2.4 GB)."""
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[input]\nsynth = true\n[synth]\nrows_per_class = 60\n"
                   "[mlp]\nmode = bp-sgd\nhidden = 2000000\n")
    run = run_child(repo_root, "pipeline", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out"), address_space=2 * 1024 ** 3)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert "error: [mlp] hidden = 2000000 on 4 features gives P = 14000002 parameters" \
        in run.stderr
    assert not (tmp_path / "out" / "ann_model.txt").exists()


def test_synth_draws_that_overflow_are_a_data_error(tmp_path, repo_root):
    """The noise draws overflow to inf, which write_csv refuses; the run is
    checked in a fresh process, as a user would see it."""
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[synth]\nrows_per_class = 20\nnoise_scale = 1e308\n")
    out = tmp_path / "out" / "synthetic_flows.csv"
    run = run_child(repo_root, "synth", "--config", str(cfg),
                    "--out-dir", str(out.parent))
    assert run.returncode == 3, run.stderr
    assert "Traceback" not in run.stderr
    assert f"data error: {out}: row " in run.stderr
    assert "non-finite value" in run.stderr and not out.exists()


def test_pipeline_with_both_classifiers_never_imports_numpy_ma(tmp_path, repo_root):
    """numpy.ma costs a fresh process 8-15 ms to import; np.unique imports it."""
    config = (repo_root / "configs" / "two_cluster.ini").read_text()
    cfg = tmp_path / "both.ini"
    cfg.write_text(config.replace("classifier = ann\n", "classifier = both\n"))
    run = run_child(repo_root, "pipeline", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"
