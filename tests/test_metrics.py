import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve.metrics import (C45_COLUMN_NAME, C45_REPORTED, REPORT_ROWS,
                               ConfusionMatrix, build_report,
                               confusion, format_percent, parse_report_csv,
                               rates, render_csv, render_table, round_percent)


class TestConfusion:
    def test_perfect(self):
        cm = confusion([1, 1, 0, 0], [1, 1, 0, 0], positive_class=1)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 2, 0, 0)

    def test_all_positive_predictor(self):
        cm = confusion([1, 1, 1, 1], [1, 0, 1, 0], positive_class=1)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 0, 2, 0)

    def test_orientation_flip_swaps_counts(self):
        preds = [1, 0, 1, 1, 0]
        labels = [1, 1, 0, 1, 0]
        a = confusion(preds, labels, positive_class=1)
        b = confusion(preds, labels, positive_class=0)
        assert (a.tp, a.tn, a.fp, a.fn) == (b.tn, b.tp, b.fn, b.fp)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion([1], [1, 0], positive_class=1)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            cm = confusion(preds, labels, positive_class=1)
            assert cm.total == n


class TestRates:
    def test_worked_example(self):
        r = rates(ConfusionMatrix(tp=98, fn=2, fp=1, tn=99))
        assert r.acc == pytest.approx(0.985)
        assert r.dr == pytest.approx(0.98)
        assert r.fpr == pytest.approx(0.01)
        assert r.ppv == pytest.approx(0.9899, abs=1e-4)

    def test_undefined_dr(self):
        r = rates(ConfusionMatrix(tp=0, fn=0, fp=3, tn=7))
        assert r.dr is None
        assert r.fpr == pytest.approx(0.3)

    def test_perfect_classifier(self):
        r = rates(ConfusionMatrix(tp=10, fn=0, fp=0, tn=10))
        assert (r.acc, r.dr, r.fpr, r.ppv) == (1.0, 1.0, 0.0, 1.0)

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
            if tp + tn + fp + fn == 0:
                continue
            r = rates(ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))
            assert r.acc == (tp + tn) / (tp + tn + fp + fn)
            assert r.dr == (tp / (tp + fn) if tp + fn else None)
            assert r.fpr == (fp / (fp + tn) if fp + tn else None)
            assert r.ppv == (tp / (tp + fp) if tp + fp else None)


class TestReport:
    def test_perfect_predictions(self):
        report = build_report([1, 1, 0, 0], [1, 1, 0, 0])
        assert report["dr_tor"] == 100.0
        assert report["ppv_tor"] == 100.0
        assert report["fpr_tor"] == 0.0
        assert report["dr_nontor"] == 100.0
        assert report["overall_acc"] == 100.0

    def test_published_column_shape_renders_seven_rows(self):
        column = {
            "dr_tor": 98.8, "fpr_tor": 0.03, "ppv_tor": 99.8,
            "dr_nontor": 100.0, "fpr_nontor": 1.2, "ppv_nontor": 99.8,
            "overall_acc": 99.8}
        table = render_table({"CFS-ANN": column})
        lines = table.strip().splitlines()
        assert len(lines) == 1 + 7  # header + the seven report rows
        assert "DR (Tor) %" in lines[1]
        assert "Overall ACC. %" in lines[7]

    def test_degenerate_all_one_class(self):
        report = build_report([1, 1, 1, 1], [1, 1, 0, 0])
        assert report["overall_acc"] == 50.0
        assert report["dr_tor"] == 100.0
        assert report["fpr_tor"] == 100.0
        assert report["dr_nontor"] == 0.0

    def test_cross_orientation_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            tor = rates(confusion(preds, labels, positive_class=1))
            nontor = rates(confusion(preds, labels, positive_class=0))
            # DR with A positive = specificity of the flipped orientation.
            if tor.dr is not None:
                fn = confusion(preds, labels, 1).fn
                tp = confusion(preds, labels, 1).tp
                assert tor.dr == pytest.approx(1.0 - fn / (tp + fn))
                assert nontor.fpr is not None
                assert tor.dr == pytest.approx(1.0 - nontor.fpr)

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pairs, rand):
        preds = [p for p, _ in pairs]
        labels = [l for _, l in pairs]
        base = build_report(preds, labels)
        order = list(range(len(pairs)))
        rand.shuffle(order)
        shuffled = build_report([preds[i] for i in order],
                                [labels[i] for i in order])
        assert base == shuffled


class TestRendering:
    def test_round_half_away_from_zero(self):
        assert round_percent(0.25) == 0.3
        assert round_percent(99.85) == 99.9
        assert round_percent(0.04) == 0.0
        assert round_percent(1.15) == 1.2
        assert round_percent(100.0) == 100.0

    def test_undefined_cells_marked(self):
        report = {key: None for key, _ in REPORT_ROWS}
        table = render_table({"X": report})
        for line in table.strip().splitlines()[1:]:
            assert line.rstrip().endswith("-")

    def test_reference_column_appended(self):
        report = build_report([1, 0], [1, 0])
        table = render_table({"ANN": report}, include_reference=True)
        assert C45_COLUMN_NAME in table
        assert "93.4" in table and "94.8" in table
        # the baseline's FPR cells are blank markers, never zeros
        fpr_line = [l for l in table.splitlines() if l.startswith("FPR (Tor)")][0]
        assert fpr_line.rstrip().endswith("-")

    def test_csv_reparse_reproduces_rounded_values(self):
        rng = np.random.default_rng(3)
        preds = rng.integers(0, 2, 25)
        labels = rng.integers(0, 2, 25)
        report = build_report(preds, labels)
        text = render_csv({"model": report})
        parsed = parse_report_csv(text)["model"]
        for key, _ in REPORT_ROWS:
            value = report[key]
            expected = None if value is None else round_percent(value)
            assert parsed[key] == expected

    @pytest.mark.parametrize("include_reference", [False, True])
    def test_csv_round_trips_quotes_commas_and_non_ascii(self, include_reference):
        # The csv module quotes what it reads back; a hand-written quoting
        # once read `a,"b` back as `a,b"`.
        names = ['a,"b', 'q"uote', '"', ",", "Ünï"]
        columns = {name: build_report([1, 0, 1, 0], [1, 0, i % 2, 1])
                   for i, name in enumerate(names)}
        expected = {name: {key: None if value is None else round_percent(value)
                           for key, value in report.items()}
                    for name, report in columns.items()}
        if include_reference:
            expected[C45_COLUMN_NAME] = C45_REPORTED
        parsed = parse_report_csv(render_csv(columns, include_reference))
        assert list(parsed) == list(expected)
        assert parsed == expected

    @pytest.mark.parametrize("render", [render_csv, render_table])
    @pytest.mark.parametrize("name", ["x\ny", "x\ry", "x\r\ny", "\n"])
    def test_line_break_in_column_name_is_refused(self, render, name):
        # It would split the header row; the csv writer would not even quote
        # a lone "\r", and its report.csv would not read back.
        columns = {"ANN": build_report([1, 0], [1, 0]), name: build_report([1, 0], [0, 1])}
        with pytest.raises(ValueError, match="^line break in column name "):
            render(columns)

    def test_csv_of_the_paper_columns_is_pinned(self):
        columns = {name: build_report(predictions, labels)
                   for name, predictions, labels in (
                       ("ANN", [1, 1, 0, 0, 1, 0, 1, 0], [1, 0, 0, 1, 1, 0, 1, 1]),
                       ("SVM", [1, 0, 0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 1, 1, 0]),
                       ("CFS-ANN", [0, 0, 1, 0, 1, 0, 1, 0], [0, 1, 1, 0, 1, 1, 0, 1]),
                       ("CFS-SVM", [0, 1, 0, 1, 0, 1, 0], [1, 1, 0, 1, 1, 0, 1]))}
        rows = ["metric,ANN,SVM,CFS-ANN,CFS-SVM",
                "DR (Tor) %,60.0,50.0,40.0,40.0",
                "FPR (Tor) %,33.3,50.0,33.3,50.0",
                "PPV (Tor) %,75.0,50.0,66.7,66.7",
                "DR (nonTor) %,66.7,50.0,66.7,50.0",
                "FPR (nonTor) %,40.0,50.0,60.0,60.0",
                "PPV (nonTor) %,50.0,50.0,40.0,25.0",
                "Overall ACC. %,62.5,50.0,50.0,42.9"]
        assert render_csv(columns) == "".join(row + "\n" for row in rows)
        reference = ['"C4.5 (reported, not computed)"', "93.4", "-", "94.8", "99.2", "-",
                     "99.4", "-"]
        assert render_csv(columns, include_reference=True) == "".join(
            f"{row},{cell}\n" for row, cell in zip(rows, reference))

    def test_format_percent(self):
        assert format_percent(None) == "-"
        assert format_percent(99.97) == "100.0"
        assert format_percent(0.03) == "0.0"

    def test_reference_values_pinned(self):
        assert C45_REPORTED["dr_tor"] == 93.4
        assert C45_REPORTED["ppv_tor"] == 94.8
        assert C45_REPORTED["dr_nontor"] == 99.2
        assert C45_REPORTED["ppv_nontor"] == 99.4
        assert C45_REPORTED["fpr_tor"] is None
