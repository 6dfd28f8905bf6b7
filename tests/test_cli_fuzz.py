"""Hostile CLI inputs: packet files, flow CSVs and model files that are
truncated, mutated byte by byte (non-UTF-8 bytes included) or relabelled,
config values out of every range, and out dirs that cannot be written, end
in exit 0, 2 or 3, never in an exception, and a data error names the input
file."""

import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowsieve.cli import ARTIFACT_FORMATS, main
from flowsieve.config import SETTINGS
from test_cli import TEN_PACKETS, checked_manifest, run_child, synth_csv, write_ini

# Small enough that a train or select run takes milliseconds.
FUZZ_INI = "[mlp]\nmax_epochs = 2\n[select]\nmax_stale_expansions = 1\n"
LABELS = ["Tor", "NonTor", "Unlabeled"]


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The unmutated inputs, the config and the models for eval to load."""
    root = tmp_path_factory.mktemp("fuzz_seeds")
    flows = synth_csv(root, rows=24)
    config = root / "fuzz.ini"
    config.write_text(FUZZ_INI)
    assert main(["train", str(flows), "--classifier", "both", "--config",
                 str(config), "--out-dir", str(root / "model")]) == 0
    return {"packets": TEN_PACKETS.encode(), "flows": flows.read_bytes(),
            "flows_path": flows, "config": config,
            "model": root / "model" / "ann_model.txt",
            "models": {name: (root / "model" / name).read_bytes()
                       for name in ("ann_model.txt", "svm_model.txt")}}


@st.composite
def relabelled(draw, data: bytes) -> bytes:
    """Every row given one label, or a few rows given any of LABELS."""
    header, *rows = data.decode().splitlines()
    one = draw(st.sampled_from([None, *LABELS]))
    changed = draw(st.sets(st.integers(0, len(rows) - 1), max_size=3))
    rows = [row.rsplit(",", 1)[0] + "," + (one or draw(st.sampled_from(LABELS)))
            if one or i in changed else row for i, row in enumerate(rows)]
    return "\n".join([header, *rows]).encode() + b"\n"


# Any byte, or one that often keeps a cell numeric or moves a cell or row
# boundary; 0xff and 0xc3 are not UTF-8 on their own.
BYTES = st.one_of(st.integers(0, 255),
                  st.sampled_from(b"0123456789.-+eE,\n\r \xff\xc3"))


@st.composite
def hostile(draw, data: bytes, relabel: bool) -> bytes:
    """`data` relabelled (flow CSVs only), with up to 3 bytes replaced, then
    perhaps cut short at any byte or after a line."""
    if relabel and draw(st.booleans()):
        data = draw(relabelled(data))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([draw(BYTES)]) + data[at + 1:]
    cut = draw(st.sampled_from([None, "byte", "line"]))
    if cut == "byte":
        data = data[:draw(st.integers(0, len(data)))]
    elif cut == "line":
        data = b"".join(data.splitlines(keepends=True)[:draw(st.integers(0, 30))])
    return data


# One character more than csv's default field size limit.
LONG_FIELD = b"9" * 131_073


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_input_exits_cleanly(seeds, tmp_path, capsys, data):
    """A hostile input, sometimes with a field past csv's size limit put in
    at any byte, exits with a documented code."""
    command = data.draw(st.sampled_from(["meter", "select", "train", "eval"]))
    if command == "meter":
        path = tmp_path / "packets.txt"
        text = data.draw(hostile(seeds["packets"], relabel=False))
        extra = data.draw(st.sampled_from(
            [[], *(["--label", label] for label in LABELS)]))
    else:
        path = tmp_path / "flows.csv"
        text = data.draw(hostile(seeds["flows"], relabel=True))
        extra = ["--model", str(seeds["model"])] if command == "eval" else []
    if data.draw(st.integers(0, 4)) == 0:
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + LONG_FIELD + text[at:]
    path.write_bytes(text)
    capsys.readouterr()
    rc = main([command, str(path), *extra, "--config", str(seeds["config"]),
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3)
    if rc == 3:
        assert str(path) in err


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_model_file_exits_cleanly(seeds, tmp_path, capsys, data):
    name = data.draw(st.sampled_from(sorted(seeds["models"])))
    path = tmp_path / name
    path.write_bytes(data.draw(hostile(seeds["models"][name], relabel=False)))
    capsys.readouterr()
    rc = main(["eval", str(seeds["flows_path"]), "--model", str(path), "--config",
               str(seeds["config"]), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc in (0, 3)
    if rc == 3:
        assert str(path) in err


# Every key but the input path and the meter label; each text is out of range,
# non-finite, empty or in Arabic-Indic digits (12), which int() and float() accept.
CONFIG_KEYS = sorted(key for key in SETTINGS if key not in {("input", "flows"),
                                                            ("input", "label")})
HOSTILE_TEXTS = ["inf", "nan", "1e308", "-1e308", "1e30", "0", "-1", "", "\u0661\u0662"]
BASE_CONFIG = {"input": {"synth": "true"}, "synth": {"rows_per_class": "40"},
               "train": {"classifier": "both"}, "mlp": {"mode": "bp-sgd", "max_epochs": "2"}}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(CONFIG_KEYS), text=st.sampled_from(HOSTILE_TEXTS))
def test_hostile_config_value_exits_cleanly(tmp_path, repo_root, key, text):
    """One key set to one hostile text on a small synth, in a child process with
    a 30 s timeout and a 2 GB address space; a numpy RuntimeWarning is a bug."""
    sections = {name: dict(keys) for name, keys in BASE_CONFIG.items()}
    sections.setdefault(key[0], {})[key[1]] = text
    cfg = write_ini(tmp_path / "hostile.ini", sections)
    run = run_child(repo_root, "pipeline", "--config", str(cfg), "--out-dir",
                    str(tmp_path / "out"), address_space=2 * 1024 ** 3, timeout=30)
    assert run.returncode in (0, 2, 3), run.stderr
    assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr


@st.composite
def hostile_out_dir(draw, root: Path) -> Path:
    """An out dir under `root` that is a file, lies under one, has a name too
    long for the file system, lies under a dangling symlink or under a
    working directory that is removed (a relative path; the caller goes
    back), or holds a directory named as an artifact or the manifest."""
    (root / "a_file").write_text("")
    (root / "link").symlink_to(root / "nowhere")
    shape = draw(st.sampled_from(["file", "under-file", "long", "dangling", "vanished",
                                  "artifact-dir"]))
    if shape == "vanished":
        (root / "gone").mkdir()
        os.chdir(root / "gone")
        (root / "gone").rmdir()
        return Path("out")
    if shape == "artifact-dir":
        name = draw(st.sampled_from(sorted([*ARTIFACT_FORMATS, "manifest.json"])))
        (root / "out" / name).mkdir(parents=True)
        return root / "out"
    return {"file": root / "a_file", "under-file": root / "a_file" / "out" / "deeper",
            "long": root / ("x" * 300) / "out", "dangling": root / "link" / "out"}[shape]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_out_dir_exits_cleanly(seeds, tmp_path, capsys, data):
    """Exit 2 with one stderr line naming the out dir, a directory above it or
    a file in it; or exit 0 (a directory no artifact of the command is named
    after) with a manifest whose every artifact matches its digest."""
    command = data.draw(st.sampled_from(["meter", "select", "train"]))
    inputs = {"meter": [str(tmp_path / "packets.txt"), "--label", "Tor"],
              "select": [str(seeds["flows_path"])],
              "train": [str(seeds["flows_path"]), "--classifier", "both"]}[command]
    (tmp_path / "packets.txt").write_text(TEN_PACKETS)
    cwd = os.getcwd()
    try:
        out_dir = data.draw(hostile_out_dir(Path(tempfile.mkdtemp(dir=tmp_path))))
        capsys.readouterr()
        rc = main([command, *inputs, "--config", str(seeds["config"]),
                   "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        if rc == 0:
            assert checked_manifest(out_dir)["exit_code"] == 0
    finally:
        os.chdir(cwd)
    assert rc in (0, 2), err
    if rc == 2:
        named = re.fullmatch(r"error: cannot write (.+): [^:\n]+\n", err)
        assert named, err
        assert Path(named[1]) in {out_dir, *out_dir.parents} or Path(named[1]).parent == out_dir
