"""Golden digests of the files the CLI writes.

Meter rows and synthetic tables are computed elementwise, so the same
source gives the same bytes on any machine with the same numpy. The digests
were taken before the flow-feature layout and the synthetic covariance were
reduced to one form each, which kept these bytes. Every `pipeline` artifact
is pinned too, but its model bits depend on the BLAS build, so those digests
are keyed by the numpy and BLAS a manifest records, and the test skips on any
other build. A change that alters a digest on purpose updates it and says why
in CHANGES.md.
"""

import configparser
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from flowsieve.cli import main
from flowsieve.dataset import CLASS_NAMES, Dataset
from flowsieve.flow_meter import FEATURE_COLUMNS, meter_packets, read_packet_file
from conftest import REPO_ROOT
from oracles import oracle_write_csv
from test_cli import unb_cic_csv


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trace_text(n_packets: int = 400) -> str:
    """A fixed packet trace from a linear congruential generator.

    Three clients talk to two servers, and most packets stay on the previous
    packet's conversation, so flows hold many packets in both directions.
    Gaps mix sub-second spacing with jumps past the 5 s activity timeout
    and the 120 s flow timeout, so bursts, idle periods and flow splits
    all occur. A conversation switch at a packet index divisible by 7
    picks UDP.
    """
    state = 12345

    def draw(n: int) -> int:
        nonlocal state
        state = (6364136223846793005 * state + 1442695040888963407) % 2 ** 64
        return (state >> 33) % n  # the high bits; the low ones cycle short

    lines = ["timestamp_us,src_ip,src_port,dst_ip,dst_port,protocol,bytes"]
    ts = 0
    client = server = 0
    proto = 6
    for i in range(n_packets):
        jump = draw(100)
        if jump < 94:
            ts += draw(500_000)
        elif jump < 99:
            ts += 5_000_001 + draw(20_000_000)
        else:
            ts += 120_000_001 + draw(60_000_000)
        if draw(10) < 3:
            client, server = draw(3), draw(2)
            proto = 17 if i % 7 == 0 else 6
        src, sport = f"10.0.0.{client + 1}", 40000 + client
        dst, dport = f"192.168.1.{server + 1}", (443, 80)[server]
        if draw(2):
            src, dst, sport, dport = dst, src, dport, sport
        lines.append(f"{ts},{src},{sport},{dst},{dport},{proto},{40 + draw(1460)}")
    return "\n".join(lines) + "\n"


METER_SHA256 = "39141f3f53c8b6b14eef16eccc939ad64acfd7201db1a914b5d190c5ba3b067f"
SYNTH_SHA256 = "762d46cd36c699754bb88448f0306653e7085aca845574e0dda57915353558ba"
SYNTH_SCALED_SHA256 = "adb7fad09c22ad59e16c7d9b8d2d4944a096631239f9ee7f9f08711aaaffe94d"


def test_meter_rows_match_golden_digest(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(_trace_text(), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["meter", str(trace), "--label", "Tor",
                 "--out-dir", str(out_dir)]) == 0
    assert _sha256(out_dir / "flows.csv") == METER_SHA256


def test_meter_csv_is_the_reference_writer_of_the_meter_table(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(_trace_text(), encoding="utf-8")
    assert main(["meter", str(trace), "--label", "Tor",
                 "--out-dir", str(tmp_path / "out")]) == 0
    table = meter_packets(read_packet_file(trace))
    labels = np.full(len(table), CLASS_NAMES.index("Tor"))
    oracle_write_csv(Dataset(FEATURE_COLUMNS, table, labels), tmp_path / "oracle.csv")
    assert ((tmp_path / "out" / "flows.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


def test_synth_table_matches_golden_digest(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["synth", "--rows-per-class", "30", "--seed", "4",
                 "--out-dir", str(out_dir)]) == 0
    assert _sha256(out_dir / "synthetic_flows.csv") == SYNTH_SHA256


def test_scaled_covariance_synth_table_matches_golden_digest(tmp_path):
    config = tmp_path / "scaled.ini"
    config.write_text("[synth]\ncovariance_scale = 2.5\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--rows-per-class", "30",
                 "--seed", "4", "--out-dir", str(out_dir)]) == 0
    assert _sha256(out_dir / "synthetic_flows.csv") == SYNTH_SCALED_SHA256


# The bundled config and the overrides of each pipeline case, all at seed 7.
# lm-two-chunks trains LM on 4,200 rows, past one 4096-row chunk, so two
# chunks (and two workers where they run) take part. unb-cic runs the
# configs/unb_cic.ini recipe on test_cli.unb_cic_csv's table, which has the
# published column names, dotted quads and Infinity rows to drop.
PIPELINE_CASES = {
    "lm-both": ("two_cluster.ini", {"train": {"classifier": "both"}}),
    "bp-sgd-both": ("two_cluster.ini", {"train": {"classifier": "both"},
                                        "mlp": {"mode": "bp-sgd"}}),
    "lm-two-chunks": ("two_cluster.ini", {"synth": {"rows_per_class": "3000"},
                                          "mlp": {"max_epochs": "3"}}),
    "lm-both-select-off": ("two_cluster.ini", {"train": {"classifier": "both"},
                                               "select": {"enabled": "false"}}),
    "unb-cic": ("unb_cic.ini", {}),
}

# sha256 of stdout and of each out-dir file but manifest.json, per case, keyed
# by the manifest's environment (numpy version, BLAS name and version).
PIPELINE_SHA256 = {
    ('2.4.6', 'scipy-openblas 0.3.31.188.0'): {
        'lm-both': {
            'ann_history.csv':
                '6fcd1788b3dda854a478353061b4a6caaaae58b7c8824e56aa65cc8b7ff9ccad',
            'ann_model.txt':
                '21495c1f031db47765a5bc1dc1a43119d86668f5e3cda0277a9aaced261bdf4d',
            'correlation_matrix.csv':
                'aef3721b84ab8b540d025590816ddd69e4ac9cff767ba5acd901af705285acb6',
            'report.csv':
                '5ee78630806cbc2788073e3d413b5a4649acdcf1ce7f15e9eef470b9bd92e57f',
            'report.txt':
                '05a4b1918231d1607b2be29298067cc5a2250a65376351feb63d68b2dabff4d5',
            'selected.csv':
                '746104e3969b8f1d5cc2a168a5664ef7513ecd8059ac61a75b63dbcd997350c0',
            'selection.txt':
                'ae66df7bef5ed71b634a2ed8a6b9715e7699b26269580259bd47e1c3192fbe90',
            'svm_model.txt':
                'a0ed68c73d722bad08f3d44fd9cea7f89b67c31b27f962e7a250b948cf533afe',
            'synthetic_flows.csv':
                '63df871273c4d3289b92dbda82f14d6c58b21e321a4925003b7feafb9ee97102',
            'test.csv':
                '6c0965767f299d5cf4f312a7013f186537e6b3ed4378b4dee59d14f74901ddb0',
            'stdout':
                '09b9fcd0357192d74154d34648e8ced1cf847d5fce7c902abb5f0625f21824e0',
        },
        'bp-sgd-both': {
            'ann_history.csv':
                '0623a017a3c262f8769fa98114c927fc61264dfc57a73ca3c64c6aa9c1505df9',
            'ann_model.txt':
                '18ec0e3cf55b58357bb5700222f8af709de2a92f0beb4441058cfbe8a603ac09',
            'correlation_matrix.csv':
                'aef3721b84ab8b540d025590816ddd69e4ac9cff767ba5acd901af705285acb6',
            'report.csv':
                '5ee78630806cbc2788073e3d413b5a4649acdcf1ce7f15e9eef470b9bd92e57f',
            'report.txt':
                '05a4b1918231d1607b2be29298067cc5a2250a65376351feb63d68b2dabff4d5',
            'selected.csv':
                '746104e3969b8f1d5cc2a168a5664ef7513ecd8059ac61a75b63dbcd997350c0',
            'selection.txt':
                'ae66df7bef5ed71b634a2ed8a6b9715e7699b26269580259bd47e1c3192fbe90',
            'svm_model.txt':
                'a0ed68c73d722bad08f3d44fd9cea7f89b67c31b27f962e7a250b948cf533afe',
            'synthetic_flows.csv':
                '63df871273c4d3289b92dbda82f14d6c58b21e321a4925003b7feafb9ee97102',
            'test.csv':
                '6c0965767f299d5cf4f312a7013f186537e6b3ed4378b4dee59d14f74901ddb0',
            'stdout':
                'e1ca372e8ca4e9a392d75d5cd6fa12a8765f0d177f18bf942421c49901829561',
        },
        'lm-two-chunks': {
            'ann_history.csv':
                '60e9cd8544c7b43099e999c9ccdef6d671f7b12bc933761c6a41fac9b337cd12',
            'ann_model.txt':
                '040b48311853a9085c847e704444527502442ddff013c76a2f58c29b938e6317',
            'correlation_matrix.csv':
                'eee73095001b7fd5351ff4eb38778b7871df09c6b82852b702124e04897260c6',
            'report.csv':
                '761b8b6a37c81dc0192274ea14400cdc0a8bf897543321061cbf2f7ac28d9529',
            'report.txt':
                '512d36b4d38dbc05016a71e1d593fe292fcac175c036f0f2b40cd4266644ad8b',
            'selected.csv':
                '427a5d4c9461b9b1a6ee11cb4bb73c8fa40da40442c553695b78daeae7d77849',
            'selection.txt':
                'ea72a15860c0bb58784c1dc98af5118b9ee1c9ae651416f844f79ee5c576179e',
            'synthetic_flows.csv':
                'ca9a7dbbc14ee03ef1f5c7f13dfeeb2af11e95d084c8ee491738f3c5c58e1905',
            'test.csv':
                '03ac0f0cd152cc87c5f6026ac820d25f4af5c3d1fbfae0c10948d2bba9bc0218',
            'stdout':
                '44694f206fdbedb80561810ba95fb1ca0c0004ba6eb28c7140787a815c4c194a',
        },
        'lm-both-select-off': {
            'ann_history.csv':
                'c25e38e9a6d02484598c345650da110a7502de25af18961c398d98bce6f79585',
            'ann_model.txt':
                '94bd423bbfbee3d774c2c7a3bc9f4771fc1d6fe032c3bb037a34b7f9bd029a53',
            'report.csv':
                '5c50f270535754f0cf0c140d2c0d9fe8ffc3b39f18c21c676d3de3c68ff743cf',
            'report.txt':
                '80febcf8e82bf804a38b08a1c95fc1a3539ec12c0b38758401be706faea52c95',
            'svm_model.txt':
                '0bf327f04de84e6fe2988017e90e425bff9530ddb76a1dd908b479f4256441a7',
            'synthetic_flows.csv':
                '63df871273c4d3289b92dbda82f14d6c58b21e321a4925003b7feafb9ee97102',
            'test.csv':
                '08ed15be05cbb17f480942f3d3c11d91e20c31f0703be66a65640807e6db39b6',
            'stdout':
                '39f74d725d9cce00027f3ebf3c090d9464408ddbd042dc34052147e84ab9aca6',
        },
        'unb-cic': {
            'ann_history.csv':
                'e077e855b86cd21328954a28e96b219ed675fd7c18177abbe9a2d28e80bc2bb2',
            'ann_model.txt':
                '5237bae852a3facd5e007c06bb99bbdf2acb0f6bacd876e02cde6f78ba0e9f8d',
            'correlation_matrix.csv':
                '5b508091fc24d957b6b5e7d3581f4e945414cd4e76189a7650e2b82915e705b0',
            'report.csv':
                '761b8b6a37c81dc0192274ea14400cdc0a8bf897543321061cbf2f7ac28d9529',
            'report.txt':
                '512d36b4d38dbc05016a71e1d593fe292fcac175c036f0f2b40cd4266644ad8b',
            'selected.csv':
                '7e9fde9438912acfdab233dff8a77d7fd512e615810b7c147de1f995e6050ee3',
            'selection.txt':
                'b8059c0e32d4125bf7e31049ac91e1f5c059a43c80a62dcae7a71cc406a66a43',
            'test.csv':
                'cdbd6134449e9c948189cabed42e4336994cbe9c68ac7a26559b9c6d5e2d8da7',
            'stdout':
                'f8155b44ed4d39b6edb5f44df273d62c16e716db27d4adcec71dad175f2c6635',
        },
    },
}


def _run_pipeline(tmp_path, case: str) -> tuple[dict[str, str], tuple[str, str]]:
    """(sha256 by out-dir file name and "stdout", the manifest's (numpy, blas))."""
    name, overrides = PIPELINE_CASES[case]
    config = configparser.ConfigParser()
    config.read(REPO_ROOT / "configs" / name, encoding="utf-8")
    config.read_dict(overrides)
    if name == "unb_cic.ini":  # the recipe names no input; its table is generated
        config["input"]["flows"] = str(unb_cic_csv(tmp_path)[0])
    ini, out_dir = tmp_path / f"{case}.ini", tmp_path / case
    with open(ini, "w", encoding="utf-8") as handle:
        config.write(handle)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["pipeline", "--config", str(ini), "--seed", "7",
                     "--out-dir", str(out_dir)]) == 0
    digests = {path.name: _sha256(path) for path in sorted(out_dir.iterdir())
               if path.name != "manifest.json"}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    environment = json.loads((out_dir / "manifest.json").read_text())["environment"]
    return digests, (environment["numpy"], environment["blas"])


@pytest.mark.parametrize("case", PIPELINE_CASES)
def test_pipeline_artifacts_match_golden_digests(tmp_path, case):
    digests, environment = _run_pipeline(tmp_path, case)
    pinned = PIPELINE_SHA256.get(environment)
    if pinned is None:
        pytest.skip(f"no pipeline digests pinned for numpy {environment[0]} "
                    f"with BLAS {environment[1]}")
    assert digests == pinned[case]
