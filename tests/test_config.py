import json
import platform
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowsieve import mlp
from flowsieve.cli import _Run, main, write_manifest
from flowsieve.config import SETTINGS, PipelineConfig, UsageError, load_config
from flowsieve.dataset import default_synthetic_spec
from conftest import REPO_ROOT
from test_cli import TEN_PACKETS, synth_csv


@pytest.mark.parametrize("section, key, value", [
    ("mlp", "hidden", "0"),
    ("mlp", "hidden", ""),
    ("svm", "kernel", "poly"),
    ("svm", "gamma", "-1"),
    ("input", "bad_value_policy", "foo"),
    ("svm", "max_iterations", "-5"),
    ("synth", "covariance_scale", "-1"),
    ("synth", "covariance_scale", "nan"),
])
def test_bad_file_value_names_file_and_key(tmp_path, capsys, section, key, value):
    sections = {"input": {"synth": "true"}, "synth": {"rows_per_class": "20"}}
    sections.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.ini"
    cfg.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    rc = main(["pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{cfg}: [{section}] {key}:" in err


FLOAT_KEYS = [("split", "train"), ("split", "validation"), ("split", "test"),
              ("mlp", "learning_rate"), ("svm", "gamma"), ("svm", "c"),
              ("svm", "tolerance"), ("synth", "class0_mean"), ("synth", "class1_mean"),
              ("synth", "covariance_scale"), ("synth", "duplicate_noise"),
              ("synth", "noise_scale")]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_non_finite_float_is_usage_error_naming_key(tmp_path, section, key, value):
    """c = inf once wrote a model file that eval rejects, and the removed
    [mlp] mu_max = inf made LM loop forever."""
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(UsageError, match=re.escape(f"{path}: [{section}] {key}: ")):
        load_config(str(path))


@pytest.fixture
def inputs(tmp_path):
    packets = tmp_path / "packets.txt"
    packets.write_text(TEN_PACKETS)
    return {"packets": str(packets), "flows": str(synth_csv(tmp_path))}


@pytest.mark.parametrize("argv, key", [
    (["train", "{flows}", "--hidden", "0"], "[mlp] hidden"),
    (["meter", "{packets}", "--flow-timeout-us", "0"], "[meter] flow_timeout_us"),
    (["meter", "{packets}", "--flow-timeout-us", "-1"], "[meter] flow_timeout_us"),
    (["synth", "--rows-per-class", "0"], "[synth] rows_per_class"),
    (["synth", "--rows-per-class", "-3"], "[synth] rows_per_class"),
    (["synth", "--rows-per-class", "1000000000000000"], "[synth] rows_per_class"),
])
def test_bad_flag_value_names_command_line_and_key(tmp_path, capsys, inputs,
                                                   argv, key):
    argv = [arg.format(**inputs) for arg in argv]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    assert f"command line: {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("keys, named", [
    # The check compares both timeouts, so both given keys are named.
    ({"activity_timeout_us": "100", "flow_timeout_us": "50"},
     ["activity_timeout_us", "flow_timeout_us"]),
    # Alone, the flow timeout fails against the default activity timeout.
    ({"flow_timeout_us": "50"}, ["flow_timeout_us"]),
])
def test_timeout_order_names_each_given_key(tmp_path, capsys, keys, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[meter]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "; ".join(f"{cfg}: [meter] {key}" for key in named) + \
        ": activity timeout must not exceed flow timeout" in err
    assert err.count("[meter]") == len(named)


@pytest.mark.parametrize("file_keys, flows_flag", [
    ({"flows": "f.csv", "synth": "true"}, False),
    ({"synth": "true"}, True),
], ids=["flows-synth", "synth-flows_flag"])
def test_two_inputs_are_usage_error_naming_each(tmp_path, capsys, file_keys, flows_flag):
    """pipeline once took flows, then synth, ignoring the rest."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[input]\n" + "".join(f"{k} = {v}\n" for k, v in file_keys.items()))
    argv = ["pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    assert main(argv + (["--flows", "g.csv"] if flows_flag else [])) == 2
    named = [f"{cfg}: [input] {key}" for key in file_keys]
    named += ["command line: [input] flows"] * flows_flag
    assert "; ".join(named) + ": set only one input" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_off_is_not_an_input(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[input]\nflows = f.csv\nsynth = false\n")
    assert load_config(str(cfg)).flows_path == "f.csv"


def test_flags_override_file_keys(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[mlp]\nhidden = 4\nmode = lm\n")
    loaded = load_config(str(cfg), overrides={("mlp", "hidden"): "3"})
    assert (loaded.mlp_hidden, loaded.mlp_train.mode) == (3, "lm")


def test_split_checked_on_final_values(tmp_path):
    # 0.8 alone would not sum to 1; the check sees all three keys at once.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[split]\ntrain = 0.8\nvalidation = 0.1\ntest = 0.1\n")
    assert load_config(str(cfg)).split.train == 0.8


def test_rows_flag_alone_keeps_default_spec_otherwise():
    loaded = load_config(None, overrides={("synth", "rows_per_class"): "30"})
    assert loaded.synth_spec == replace(default_synthetic_spec(),
                                        rows_per_class=(30, 30))
    assert loaded.synth_spec.covariance_scale is None


def test_negative_seed_is_usage_error_before_the_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["synth", "--seed", "-1", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == ("error: command line: --seed must be at least 0, "
                                       "got -1\n")
    assert not out_dir.exists()


def test_meter_label_flag_recorded_in_manifest(tmp_path, inputs):
    out_dir = tmp_path / "out"
    assert main(["meter", inputs["packets"], "--label", "Tor",
                 "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["meter_label"] == "Tor"
    assert (out_dir / "flows.csv").read_text().splitlines()[1].endswith(",Tor")


@pytest.mark.parametrize("dir_name", ["100%data", "50%%off"])
def test_percent_in_flows_path_is_read_literally(tmp_path, dir_name):
    data_dir = tmp_path / dir_name
    data_dir.mkdir()
    flows = synth_csv(data_dir)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[input]\nflows = {flows}\n[select]\nenabled = false\n",
                   encoding="utf-8")
    assert load_config(str(cfg)).flows_path == str(flows)
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "report.csv").is_file()


def test_manifest_refuses_a_listed_artifact_that_is_missing(tmp_path):
    run = _Run("select", [], PipelineConfig(), tmp_path, artifacts=["selection.txt"])
    with pytest.raises(FileNotFoundError):
        write_manifest(run)


def test_manifest_records_the_numeric_environment(tmp_path):
    """What two runs' numbers can differ by: the interpreter, numpy, its
    BLAS and that BLAS's thread count, and the chunk workers LM used: 1 on
    the bundled config, whose training split fits one chunk, and null when
    no LM model trained."""
    def environment(out_dir):
        return json.loads((out_dir / "manifest.json").read_text())["environment"]

    write_manifest(_Run("select", [], PipelineConfig(), tmp_path))
    written = environment(tmp_path)
    assert set(written) == {"python", "numpy", "blas", "blas_threads", "lm_chunk_workers"}
    assert written["python"] == platform.python_version()
    assert written["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert written["blas"] == f"{blas['name']} {blas['version']}"
    assert written["blas_threads"] == mlp.blas_threads()
    assert written["lm_chunk_workers"] is None

    bundled = REPO_ROOT / "configs" / "two_cluster.ini"
    assert main(["pipeline", "--config", str(bundled), "--seed", "7",
                 "--out-dir", str(tmp_path / "lm")]) == 0
    assert environment(tmp_path / "lm")["lm_chunk_workers"] == 1
    for name, keys in (("sgd", "[mlp]\nmode = bp-sgd\nmax_epochs = 3\n"),
                       ("svm", "[train]\nclassifier = svm\n")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text("[input]\nsynth = true\n[synth]\nrows_per_class = 40\n" + keys)
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / name)]) == 0
        assert environment(tmp_path / name)["lm_chunk_workers"] is None


# Values that reach each parser's edge cases, plus arbitrary short text.
VALUE_TEXT = st.one_of(
    st.sampled_from(["", "0", "-1", "1", "0.5", "nan", "inf", "-inf", "1e999",
                     "true", "off", "lm", "rbf", "both", "Tor", "drop", "1 2",
                     "1,2,3,4", "%", "%(x)s", "99999999"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(SETTINGS)), value=VALUE_TEXT)
def test_any_value_loads_or_is_usage_error_naming_file(tmp_path, key, value):
    path = tmp_path / "fuzz.ini"
    path.write_text(f"[{key[0]}]\n{key[1]} = {value}\n", encoding="utf-8")
    try:
        assert isinstance(load_config(str(path)), PipelineConfig)
    except UsageError as exc:
        assert str(path) in str(exc)


def _readme_rows() -> dict[tuple[str, str], str]:
    rows = {}
    for line in (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        match = re.match(r"\| `\[(\w+)\] (\w+)` \|", line)
        if match:
            rows[match.groups()] = line
    return rows


def test_readme_table_lists_every_key():
    assert set(_readme_rows()) == set(SETTINGS)


def _parser_flags() -> dict[tuple[str, str], set[str]]:
    """(section, key) -> the flags of every subcommand that set that key."""
    from flowsieve.cli import build_parser

    flags: dict[tuple[str, str], set[str]] = {}
    subcommands = next(action for action in build_parser()._actions
                       if action.choices and action.dest == "command")
    for subparser in subcommands.choices.values():
        for action in subparser._actions:
            if ":" in action.dest:
                flags.setdefault(tuple(action.dest.split(":")), set()).update(
                    action.option_strings)
    return flags


def test_readme_table_matches_settings_and_flags():
    rows = _readme_rows()
    assert len(rows) == len(SETTINGS) == 31
    assert set(rows) == set(SETTINGS)
    readme_flags = {key: set(re.findall(r"`(--[\w-]+)`", line.rsplit("|", 2)[1]))
                    for key, line in rows.items()}
    parser_flags = _parser_flags()
    assert readme_flags == {key: parser_flags.get(key, set()) for key in SETTINGS}
