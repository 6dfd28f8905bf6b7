"""Golden digests of outputs whose bytes do not depend on BLAS.

Meter rows and synthetic tables are computed elementwise, so the same
source gives the same bytes on any machine with the same numpy. The digests
were taken before the flow-feature layout and the synthetic covariance were
reduced to one form each, which kept these bytes. A change that alters them
on purpose updates the digest and says why in CHANGES.md. Model files are
not pinned: their bits depend on the BLAS build.
"""

import hashlib

import numpy as np

from flowsieve.cli import main
from flowsieve.dataset import CLASS_NAMES, Dataset
from flowsieve.flow_meter import FEATURE_COLUMNS, meter_packets, read_packet_file
from oracles import oracle_write_csv


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
