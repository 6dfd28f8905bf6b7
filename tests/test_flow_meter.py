import ipaddress
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import dataset, flow_meter
from flowsieve.cli import _Run, run_meter
from flowsieve.config import PipelineConfig
from flowsieve.errors import DataError
from flowsieve.flow_meter import (FEATURE_COLUMNS, MeterConfig, PacketRecord,
                                  ParseError, _load_columns, _read_records,
                                  assemble_flows, compute_features,
                                  meter_packets, parse_ipv4, read_packet_file)
from conftest import assert_close
from oracles import (FlowKey, FourStats, accumulate_flows, oracle_features,
                     oracle_flows, oracle_key, oracle_packet_record,
                     packet_array, parse_packet_record, random_trace,
                     reference_meter, segment_active_idle, stats_summary)


def ip(text: str) -> int:
    return int(ipaddress.IPv4Address(text))


def pkt(ts, src="10.0.0.1", sport=443, dst="10.0.0.2", dport=80,
        proto=6, size=100) -> PacketRecord:
    return PacketRecord(ts, ip(src), sport, ip(dst), dport, proto, size)


def features(*packets, cfg=None) -> dict[str, float]:
    """The first flow's feature row, keyed by FEATURE_COLUMNS name."""
    return dict(zip(FEATURE_COLUMNS, meter_packets(packet_array(packets), cfg)[0]))


def meter_csv(packets, out_dir, label: str):
    """The flows.csv that run_meter writes into `out_dir` for these packets."""
    out_dir.mkdir(exist_ok=True)
    text = out_dir / "packets.txt"
    text.write_text("".join(
        f"{p.timestamp_us},{ipaddress.IPv4Address(p.src_ip)},{p.src_port},"
        f"{ipaddress.IPv4Address(p.dst_ip)},{p.dst_port},{p.protocol},{p.payload_bytes}\n"
        for p in packets))
    return run_meter(_Run("meter", [], PipelineConfig(meter_label=label), out_dir), text)


def stats_of(feat: dict[str, float], prefix: str) -> FourStats:
    """The (mean, std, max, min) columns named `prefix`_*."""
    return FourStats(*(feat[f"{prefix}_{name}"] for name in FourStats._fields))


STATS_PREFIXES = ("flow_iat", "fwd_iat", "bwd_iat", "active", "idle")


class TestParse:
    def test_basic_record(self):
        rec = parse_packet_record("1000,10.0.0.1,443,10.0.0.2,5555,6,60")
        assert rec.timestamp_us == 1000
        assert rec.protocol == 6
        assert rec.payload_bytes == 60
        assert rec.src_ip == ip("10.0.0.1")
        assert rec.dst_port == 5555

    def test_port_out_of_range(self):
        with pytest.raises(ParseError, match="port out of range"):
            parse_packet_record("1000,10.0.0.1,70000,10.0.0.2,80,6,60", 3)

    def test_unsupported_protocol(self):
        with pytest.raises(ParseError, match="unsupported protocol 1"):
            parse_packet_record("1000,10.0.0.1,443,10.0.0.2,80,1,60")

    def test_malformed_ip_names_field_and_line(self):
        with pytest.raises(ParseError, match="line 7.*dst_ip"):
            parse_packet_record("1000,10.0.0.1,443,999.1.2.3,80,6,60", 7)

    def test_header_detection(self, tmp_path):
        path = tmp_path / "pkts.txt"
        path.write_text("timestamp_us,src_ip,src_port,dst_ip,dst_port,protocol,bytes\n"
                        "1000,10.0.0.1,443,10.0.0.2,80,6,60\n")
        records = read_packet_file(path)
        assert records.shape == (1, 7) and records[0, 0] == 1000


def reference_ipv4(text: str):
    try:
        return int(ipaddress.IPv4Address(text.strip()))
    except ValueError:  # AddressValueError is a ValueError
        return None


# Pieces of malformed and well-formed address text: digits, dots, signs,
# underscores, hex prefixes, whitespace and non-ASCII digits.
IP_PIECES = ["0", "1", "2", "5", "9", "25", "255", "256", "00", ".", " ", "\t",
             "+", "-", "_", "0x", "\u0661", "\u00b2", "\u0967", "/", "a"]
messy_text = st.lists(st.sampled_from(IP_PIECES), max_size=14).map("".join)
octet_text = st.integers(0, 300).map(str)
padded_octet = st.tuples(st.integers(0, 300), st.integers(1, 4)).map(
    lambda t: str(t[0]).zfill(t[1]))
dotted_quad = st.lists(st.one_of(octet_text, padded_octet), min_size=3,
                       max_size=5).map(".".join)
padding = st.sampled_from(["", " ", "\t", "  ", "\u00a0", "\x1c"])
address_text = st.tuples(padding, st.one_of(messy_text, dotted_quad), padding).map(
    "".join)


class TestParseIpv4:
    @given(address_text)
    def test_matches_ipaddress(self, text):
        assert parse_ipv4(text) == reference_ipv4(text)

    @pytest.mark.parametrize("text, value", [
        ("0.0.0.0", 0), ("255.255.255.255", 2**32 - 1),
        ("10.0.0.1", 0x0A000001), (" 192.168.1.20\n", 0xC0A80114),
    ])
    def test_accepts(self, text, value):
        assert parse_ipv4(text) == value

    @pytest.mark.parametrize("text", [
        "", "1.2.3", "1.2.3.4.5", "1.2.3.256", "01.2.3.4", "1.2.3.00",
        "1.2.3.0004", "+1.2.3.4", "1.2.3.-4", "1_0.2.3.4", "0x1.2.3.4",
        "\u0661.2.3.4", "\u00b2.2.3.4", "1..3.4", "1.2.3.4/32", "1. 2.3.4",
    ])
    def test_rejects(self, text):
        assert parse_ipv4(text) is None
        assert reference_ipv4(text) is None


GOOD_FIELDS = ["1000", "10.0.0.1", "443", "10.0.0.2", "80", "6", "60"]


def with_field(index: int, text: str) -> str:
    fields = list(GOOD_FIELDS)
    fields[index] = text
    return ",".join(fields)


class TestParseMessages:
    """Full ParseError texts, pinned: the meter's error output is stable."""

    @pytest.mark.parametrize("row, message", [
        (with_field(0, "1e3"), "line 5: timestamp_us: not an integer: '1e3'"),
        (with_field(0, "-1"), "line 5: timestamp_us: negative value -1"),
        (with_field(1, "10.0.0"), "line 5: src_ip: malformed IPv4 address '10.0.0'"),
        (with_field(1, " 10.0.0.01 "),
         "line 5: src_ip: malformed IPv4 address '10.0.0.01'"),
        (with_field(2, "http"), "line 5: src_port: not an integer: 'http'"),
        (with_field(2, "65536"), "line 5: src_port: port out of range: 65536"),
        (with_field(2, "-1"), "line 5: src_port: port out of range: -1"),
        (with_field(3, "999.0.0.2"),
         "line 5: dst_ip: malformed IPv4 address '999.0.0.2'"),
        (with_field(4, " 8 0 "), "line 5: dst_port: not an integer: '8 0'"),
        (with_field(4, "70000"), "line 5: dst_port: port out of range: 70000"),
        (with_field(5, "tcp"), "line 5: protocol: not an integer: 'tcp'"),
        (with_field(5, "1"), "line 5: protocol: unsupported protocol 1"),
        (with_field(6, ""), "line 5: bytes: not an integer: ''"),
        (with_field(6, "-60"), "line 5: bytes: negative value -60"),
        (with_field(0, str(2 ** 53)),
         "line 5: timestamp_us: too large: 9007199254740992 (must be below 2**53)"),
        (with_field(6, str(2 ** 32)),
         "line 5: bytes: too large: 4294967296 (must be below 2**32)"),
        ("1000,10.0.0.1,443,10.0.0.2,80,6", "line 5: expected 7 fields, got 6"),
        (",".join(GOOD_FIELDS + ["1"]), "line 5: expected 7 fields, got 8"),
        ("", "line 5: expected 7 fields, got 1"),
        # Checks run in field order: the malformed dst_ip is reported
        # before the src_port range, which is checked after both ports parse.
        ("1000,10.0.0.1,99999,10.0.0.256,x,6,60",
         "line 5: dst_ip: malformed IPv4 address '10.0.0.256'"),
        ("-5,10.0.0.1,443,10.0.0.2,80,6,x",
         "line 5: timestamp_us: negative value -5"),
    ])
    def test_message(self, row, message):
        with pytest.raises(ParseError) as info:
            parse_packet_record(row, 5)
        assert str(info.value) == message

    @given(st.lists(st.one_of(address_text, st.sampled_from(
        GOOD_FIELDS + ["-1", "65536", "17", "1", " 7 ", "1_0", "\u0661", "x",
                       "\x1c5\x1f"])),
        min_size=6, max_size=8).map(",".join))
    def test_matches_reference_parser(self, row):
        try:
            want = oracle_packet_record(row, 3)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                parse_packet_record(row, 3)
            assert str(info.value) == str(exc)
        else:
            assert parse_packet_record(row, 3) == want


class TestReadPacketFile:
    def test_header_blank_lines_crlf_and_padding(self, tmp_path):
        path = tmp_path / "pkts.txt"
        path.write_bytes(
            b"timestamp_us,src_ip,src_port,dst_ip,dst_port,protocol,bytes\r\n"
            b"1000,10.0.0.1,443,10.0.0.2,80,6,60\r\n"
            b"\r\n"
            b"  2000 , 10.0.0.2 ,80, 10.0.0.1,443 ,6, 40 \r\n"
            b"   \r\n"
            b"3000,10.0.0.3,53,10.0.0.1,5353,17,100")
        assert [tuple(r) for r in read_packet_file(path).tolist()] == [
            PacketRecord(1000, ip("10.0.0.1"), 443, ip("10.0.0.2"), 80, 6, 60),
            PacketRecord(2000, ip("10.0.0.2"), 80, ip("10.0.0.1"), 443, 6, 40),
            PacketRecord(3000, ip("10.0.0.3"), 53, ip("10.0.0.1"), 5353, 17, 100),
        ]

    def test_error_line_counts_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "pkts.txt"
        path.write_text("timestamp_us,src_ip,src_port,dst_ip,dst_port,protocol,bytes\n"
                        "1000,10.0.0.1,443,10.0.0.2,80,6,60\n"
                        "\n"
                        "2000,10.0.0.1,443,10.0.0.2,80,6,60\n"
                        "3000,10.0.0.1,443,10.0.0.2,80,6,-1\n")
        with pytest.raises(ParseError, match="^line 5: bytes: negative value -1$"):
            read_packet_file(path)

    def test_repeated_address_error_names_each_line(self, tmp_path):
        # A remembered address is still checked on every line it appears.
        path = tmp_path / "pkts.txt"
        path.write_text("1000,10.0.0.1,443,10.0.0.2,80,6,60\n"
                        "2000,10.0.0.1,443,10.0.0.2,80,6,60\n"
                        "3000,10.0.0.1,443,10.0.0.02,80,6,60\n")
        with pytest.raises(ParseError, match="^line 3: dst_ip: malformed IPv4 "
                                             "address '10.0.0.02'$"):
            read_packet_file(path)

    def test_separator_controls_are_whitespace(self):
        # str.strip() removes U+001C-U+001F around a field; int() alone does not.
        rec = parse_packet_record("\x1c1000,10.0.0.1\x1d,443\x1e,10.0.0.2,80,6,60\x1f")
        assert rec == PacketRecord(1000, ip("10.0.0.1"), 443, ip("10.0.0.2"), 80, 6, 60)

    def test_records_are_plain_tuples(self):
        rec = parse_packet_record("1000,10.0.0.1,443,10.0.0.2,5555,6,60")
        assert rec == PacketRecord(timestamp_us=1000, src_ip=ip("10.0.0.1"),
                                   src_port=443, dst_ip=ip("10.0.0.2"),
                                   dst_port=5555, protocol=6, payload_bytes=60)
        assert rec == (1000, ip("10.0.0.1"), 443, ip("10.0.0.2"), 5555, 6, 60)
        assert FlowKey((1, 2), (3, 4), 6) == ((1, 2), (3, 4), 6)


def flow_keys(*packets):
    """The canonical key of each metered flow, from its first packet."""
    flows = assemble_flows(packet_array(packets))
    return [oracle_key(PacketRecord(*flows.packets[start].tolist()))
            for start in flows.starts]


def initiator_ports(*packets):
    """The src_port column of the metered rows, in output order."""
    return [row[1] for row in meter_packets(packet_array(packets))]


class TestCanonicalKey:
    def test_direction_symmetry(self):
        fwd = pkt(0, "10.0.0.1", 443, "10.0.0.2", 80)
        bwd = pkt(5, "10.0.0.2", 80, "10.0.0.1", 443)
        assert flow_keys(fwd) == flow_keys(bwd)
        assert flow_keys(fwd, bwd) == flow_keys(fwd)

    def test_lexicographic_order(self):
        [key] = flow_keys(pkt(0, "10.0.0.1", 443, "10.0.0.2", 80))
        assert key == FlowKey((ip("10.0.0.1"), 443), (ip("10.0.0.2"), 80), 6)
        # Flows that start together come out in key order: endpoint_a is
        # the lower (ip, port) of the two, whichever end sent first.
        assert initiator_ports(pkt(0, "10.0.0.9", 1, "10.0.0.5", 2),
                               pkt(0, "10.0.0.3", 7, "10.0.0.8", 1)) == [7, 1]

    def test_port_tiebreak_on_equal_ips(self):
        [key] = [flow.key for flow in accumulate_flows(
            [pkt(0, "10.0.0.1", 9999, "10.0.0.1", 80)])]
        assert key.endpoint_a == (ip("10.0.0.1"), 80)
        assert initiator_ports(pkt(0, "10.0.0.1", 443, "10.0.0.2", 80),
                               pkt(0, "10.0.0.1", 9999, "10.0.0.1", 80)) == [9999, 443]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 65535),
           st.integers(0, 2**32 - 1), st.integers(0, 65535))
    def test_symmetry_property(self, a_ip, a_port, b_ip, b_port):
        fwd = PacketRecord(0, a_ip, a_port, b_ip, b_port, 6, 1)
        bwd = PacketRecord(0, b_ip, b_port, a_ip, a_port, 6, 1)
        assert flow_keys(fwd) == flow_keys(bwd) == [oracle_key(fwd)]
        assert flow_keys(fwd, bwd) == flow_keys(fwd)


def flow_sizes(*packets, cfg=None) -> list[int]:
    return assemble_flows(packet_array(packets), cfg).sizes.tolist()


class TestAssemble:
    def test_single_conversation(self):
        assert flow_sizes(pkt(0), pkt(500_000), pkt(1_000_000)) == [3]

    def test_flow_timeout_splits(self):
        assert flow_sizes(pkt(0), pkt(121_000_000)) == [1, 1]

    def test_exactly_at_timeout_joins(self):
        assert flow_sizes(pkt(0), pkt(120_000_000)) == [2]

    def test_interleaved_keys_match_oracle(self):
        packets = [
            pkt(0, dport=80), pkt(100, dport=8080), pkt(200, dport=80),
            pkt(300, dport=8080), pkt(400, dport=80),
        ]
        expected = oracle_flows(packets, MeterConfig().flow_timeout_us)
        assert flow_sizes(*packets) == [len(g) for g in expected] == [3, 2]
        flows = assemble_flows(packet_array(packets))
        assert flows.packets.tolist() == [list(p) for g in expected for p in g]

    def test_direction_tracking(self):
        packets = [pkt(0), pkt(10, src="10.0.0.2", sport=80,
                               dst="10.0.0.1", dport=443)]
        flows = assemble_flows(packet_array(packets))
        assert flows.starts.tolist() == [0]
        assert flows.packets.tolist() == [list(p) for p in packets]
        feat = features(*packets, pkt(30), pkt(70, src="10.0.0.2", sport=80,
                                             dst="10.0.0.1", dport=443))
        assert (feat["src_ip"], feat["src_port"]) == (ip("10.0.0.1"), 443)
        assert feat["fwd_iat_mean"] == 30 and feat["bwd_iat_mean"] == 60


class TestStatsSummary:
    """The reference meter's statistics, which the columnar meter matches
    bit for bit (TestReferenceMeter)."""

    def test_empty(self):
        assert stats_summary([]) == FourStats(0, 0, 0, 0)

    def test_singleton(self):
        assert stats_summary([5]) == FourStats(5, 0, 5, 5)

    def test_pair(self):
        assert stats_summary([1, 2]) == FourStats(1.5, 0.5, 2, 1)

    @given(st.lists(st.integers(0, 10**9), min_size=0, max_size=40))
    def test_matches_numpy(self, values):
        got = stats_summary(values)
        if not values:
            assert got == FourStats(0, 0, 0, 0)
            return
        arr = np.array(values, dtype=np.float64)
        assert_close(got.mean, arr.mean())
        assert_close(got.std, arr.std())
        assert got.max == arr.max() and got.min == arr.min()
        # A flow whose gaps are all past a 1 us activity timeout has them as
        # both its IATs and its idle periods, summarized the same way.
        gaps = [v + 2 for v in values]
        ts = np.concatenate(([0], np.cumsum(gaps))).tolist()
        row = features(*(pkt(t) for t in ts), cfg=MeterConfig(1, 2 * 10**9))
        assert stats_of(row, "flow_iat") == stats_of(row, "idle") == stats_summary(gaps)


class TestActiveIdle:
    """The reference meter's burst segmentation; the columnar meter's
    active and idle columns are checked against it in TestReferenceMeter."""

    def test_one_burst(self):
        active, idle = segment_active_idle([0, 1_000_000, 2_000_000], 5_000_000)
        assert active == [2_000_000]
        assert idle == []

    def test_two_zero_length_bursts_dropped(self):
        active, idle = segment_active_idle([0, 10_000_000], 5_000_000)
        assert active == []
        assert idle == [10_000_000]
        feat = features(pkt(0), pkt(10_000_000))
        assert stats_of(feat, "active") == FourStats(0, 0, 0, 0)
        assert stats_of(feat, "idle") == FourStats(1e7, 0, 1e7, 1e7)

    def test_hand_traced_sequence(self):
        # gaps 1e6 (extend), 8e6 (split), 1e6 (extend)
        ts = [0, 1_000_000, 9_000_000, 10_000_000]
        active, idle = segment_active_idle(ts, 5_000_000)
        assert active == [1_000_000, 1_000_000]
        assert idle == [8_000_000]
        feat = features(*(pkt(t) for t in ts))
        assert stats_of(feat, "active") == FourStats(1e6, 0, 1e6, 1e6)
        assert stats_of(feat, "idle") == FourStats(8e6, 0, 8e6, 8e6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segment_active_idle([], 5_000_000)

    @given(st.lists(st.integers(0, 10**8), min_size=1, max_size=30))
    def test_durations_bounded_by_span(self, raw):
        ts = sorted(raw)
        active, idle = segment_active_idle(ts, 5_000_000)
        assert sum(active) + sum(idle) <= ts[-1] - ts[0]


class TestComputeFeatures:
    def test_single_packet_flow(self):
        feat = features(pkt(0, size=60))
        assert feat["flow_duration"] == 0
        assert feat["flow_bytes_per_s"] == 0 and feat["flow_packets_per_s"] == 0
        for stats in (stats_of(feat, prefix) for prefix in STATS_PREFIXES):
            assert stats == FourStats(0, 0, 0, 0)

    def test_two_packet_flow(self):
        feat = features(pkt(0, size=40), pkt(1_000_000, size=60))
        assert feat["flow_duration"] == 1.0
        assert feat["flow_bytes_per_s"] == 100.0
        assert feat["flow_packets_per_s"] == 2.0
        assert feat["flow_iat_mean"] == 1_000_000

    def test_bidirectional_iat_split(self):
        packets = [
            pkt(0),
            pkt(1_000_000, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=443),
            pkt(2_000_000),
            pkt(3_000_000, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=443),
        ]
        feat = features(*packets)
        assert stats_of(feat, "flow_iat") == FourStats(1e6, 0, 1e6, 1e6)
        assert stats_of(feat, "fwd_iat") == FourStats(2e6, 0, 2e6, 2e6)
        assert stats_of(feat, "bwd_iat") == FourStats(2e6, 0, 2e6, 2e6)

    def test_source_fields_from_initiator(self):
        # Initiator is the lexicographically larger endpoint here.
        feat = features(pkt(0, src="10.0.0.9", sport=50000, dst="10.0.0.1", dport=80))
        assert feat["src_ip"] == ip("10.0.0.9") and feat["src_port"] == 50000
        assert feat["dst_ip"] == ip("10.0.0.1") and feat["dst_port"] == 80

    def test_table_shape(self):
        flows = assemble_flows(packet_array([pkt(0), pkt(5, dport=81)]))
        assert compute_features(flows).shape == (2, len(FEATURE_COLUMNS))
        empty = assemble_flows(packet_array([]))
        assert compute_features(empty).shape == (0, len(FEATURE_COLUMNS))


class TestInvariants:
    def test_iat_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            packets = random_trace(rng, 30)
            flows = assemble_flows(packet_array(packets))
            # Every packet lands in exactly one flow.
            assert sorted(map(tuple, flows.packets.tolist())) == sorted(packets)
            rows = compute_features(flows)
            for start, size, row in zip(flows.starts, flows.sizes, rows):
                flow = flows.packets[start:start + size]
                assert len({oracle_key(PacketRecord(*p)) for p in flow.tolist()}) == 1
                assert np.all(np.diff(flow[:, 0]) >= 0)
                forward = np.all(flow[:, 1:3] == flow[0, 1:3], axis=1)
                n_fwd, n_bwd = int(forward.sum()), int((~forward).sum())
                assert n_fwd + n_bwd == size
                # IAT counts: per direction packet count - 1, floored at 0
                assert max(n_fwd - 1, 0) + max(n_bwd - 1, 0) <= size - 1
                if size == 1:
                    feat = dict(zip(FEATURE_COLUMNS, row))
                    assert stats_of(feat, "flow_iat") == FourStats(0, 0, 0, 0)

    def test_stats_quadruple_ordering(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            for row in meter_packets(packet_array(random_trace(rng, 40))):
                feat = dict(zip(FEATURE_COLUMNS, row))
                for stats in (stats_of(feat, prefix) for prefix in STATS_PREFIXES):
                    assert stats.min <= stats.mean <= stats.max
                    assert stats.std >= 0

    def test_csv_deterministic(self, tmp_path):
        packets = random_trace(np.random.default_rng(5), 40)
        paths = [meter_csv(packets, tmp_path / name, "Tor") for name in "ab"]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_has_29_columns(self, tmp_path):
        path = meter_csv([pkt(0)], tmp_path, "NonTor")
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(FEATURE_COLUMNS) + ["label"]
        assert len(lines[1].split(",")) == 29


class TestOracleEquivalence:
    def test_random_traces_match_oracle(self):
        cfg = MeterConfig()
        rng = np.random.default_rng(20)
        for _ in range(25):
            packets = random_trace(rng)
            rows = meter_packets(packet_array(packets), cfg)
            expected = oracle_flows(packets, cfg.flow_timeout_us)
            assert len(rows) == len(expected)
            for got, group in zip(rows, expected):
                assert_close(got, oracle_features(group, cfg.activity_timeout_us))


def row_bits(rows) -> list[bytes]:
    return [struct.pack("28d", *row) for row in rows]


@st.composite
def packet_streams(draw):
    """A time-sorted packet stream and meter timeouts. A few addresses and
    ports make keys collide and give equal IPs with different ports; gaps
    of zero, near each timeout and far past them give zero-duration flows,
    single-packet flows, bursts and flow splits."""
    activity = draw(st.sampled_from([1, 7, 1000, 5_000_000, 10**9]))
    flow = activity * draw(st.sampled_from([1, 2, 24, 1000]))
    ips = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    ports = draw(st.lists(st.integers(0, 65535), min_size=1, max_size=3))
    endpoint = st.tuples(st.sampled_from(ips), st.sampled_from(ports))
    gap = st.one_of(st.just(0), st.integers(1, 3),
                    st.integers(max(activity - 1, 0), activity + 1),
                    st.integers(flow - 1, flow + 1), st.integers(0, 10**10))
    ts = draw(st.sampled_from([0, 1_000_000, 2**53 - 2**45]))
    packets = []
    for _ in range(draw(st.integers(1, 40))):
        ts += draw(gap)
        (src_ip, src_port), (dst_ip, dst_port) = draw(endpoint), draw(endpoint)
        packets.append(PacketRecord(ts, src_ip, src_port, dst_ip, dst_port,
                                    draw(st.sampled_from([6, 17])),
                                    draw(st.integers(0, 2**32 - 1))))
    return packets, MeterConfig(activity, flow)


class TestReferenceMeter:
    """The columnar meter gives the per-packet reference meter's rows bit
    for bit."""

    @settings(max_examples=300, deadline=None)
    @given(packet_streams())
    def test_random_streams(self, stream):
        packets, cfg = stream
        assert row_bits(meter_packets(packet_array(packets), cfg)) == \
            row_bits(reference_meter(packets, cfg))

    def test_variance_sums_in_reduceat_order(self):
        for gaps, std in [
                # Python's sum() of d ** 2 gives the IAT std 1851451574.0389767.
                ([9501872522, 9235450554, 5447922744], 1851451574.0389764),
                # np.add.reduce gives 113.37352228609446 (variance 12853.555555555555).
                ([2, 243, 3], 113.37352228609444)]:
            ts = np.cumsum([0] + gaps).tolist()
            row = features(*(pkt(t) for t in ts), cfg=MeterConfig(5_000_000, 10**10))
            assert row["flow_iat_std"] == stats_summary(gaps).std == std

    @pytest.mark.parametrize("activity, flow", [
        (5_000_000, 120_000_000), (1, 1), (1_000_000, 1_000_000), (10**9, 10**9)])
    def test_random_traces(self, activity, flow):
        cfg = MeterConfig(activity, flow)
        rng = np.random.default_rng(21)
        for _ in range(50):
            packets = random_trace(rng)
            assert row_bits(meter_packets(packet_array(packets), cfg)) == \
                row_bits(reference_meter(packets, cfg))


# ---------------------------------------------------------------- reader paths

RECORD = ["1000", "10.0.0.1", "443", "10.0.0.2", "80", "6", "60"]
HEADER = "timestamp_us,src_ip,src_port,dst_ip,dst_port,protocol,bytes"
# Values at and past each bound, per field index.
BOUND_TEXTS = {0: ["9007199254740991", "9007199254740992", "-1",
                   "9223372036854775808"],
               2: ["0", "65535", "65536", "-1"], 4: ["65535", "65536"],
               5: ["6", "17", "1"],
               6: ["0", "4294967295", "4294967296", "-1", "99999999999999999999"]}
MUTATIONS = [
    lambda t: f" {t} ", lambda t: f"\x1c{t}\x1f", lambda t: "\t" + t,
    lambda t: "+" + t, lambda t: "00" + t, lambda t: t[:1] + "_" + t[1:],
    lambda t: t + ".0", lambda t: f'"{t}"', lambda t: "١" + t, lambda t: "",
]


@st.composite
def packet_files(draw) -> bytes:
    """A packet file: records with rising timestamps, some fields mutated,
    some records short or long, with or without a header, blank lines, CRLF
    line ends and a byte that is not UTF-8."""
    lines = [HEADER] if draw(st.booleans()) else []
    ts = 0
    for _ in range(draw(st.integers(0, 6))):
        ts += draw(st.integers(0, 3)) * 500
        fields = [str(ts), *RECORD[1:]]
        fields[2] = str(draw(st.integers(0, 65535)))
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            at = draw(st.integers(0, 6))
            fields[at] = draw(st.one_of(
                st.sampled_from(BOUND_TEXTS.get(at, ["10.0.0.01"])),
                st.sampled_from(MUTATIONS).map(lambda f: f(fields[at]))))
        count = draw(st.sampled_from([7] * 20 + [6, 8]))
        lines.append(",".join((fields + ["1"])[:count]))
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
    if draw(st.integers(0, 9)) == 0 and len(lines) > 1:  # two records out of order
        at = draw(st.integers(0, len(lines) - 2))
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode()
    if draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestReaderPaths:
    """numpy's reader and the per-line reader agree: the fast path accepts
    only files the per-line reader accepts, with the same records, and
    read_packet_file gives the per-line reader's records or error text.
    A plain file, packet records or flow CSV, takes the fast path."""

    @staticmethod
    def assert_readers_agree(path):
        try:
            want, error = [list(r) for r in _read_records(path)], None
        except DataError as exc:
            want, error = None, str(exc)
        fast = _load_columns(path)
        if fast is not None:
            assert error is None and fast.tolist() == want
        if error is None:
            assert read_packet_file(path).tolist() == want
        else:
            with pytest.raises(DataError) as info:
                read_packet_file(path)
            assert str(info.value) == error

    @settings(max_examples=400, deadline=None)
    @given(data=packet_files())
    def test_fast_path_matches_per_line_reader(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("packets") / "packets.txt"
        path.write_bytes(data)
        self.assert_readers_agree(path)

    @pytest.mark.parametrize("at, text", [(at, text) for at, texts in BOUND_TEXTS.items()
                                          for text in texts])
    def test_values_at_and_past_each_bound(self, tmp_path, at, text):
        fields = list(RECORD)
        fields[at] = text
        path = tmp_path / "packets.txt"
        path.write_text(",".join(RECORD) + "\n" + ",".join(fields) + "\n")
        self.assert_readers_agree(path)

    def test_plain_file_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "packets.txt"
        path.write_text(HEADER + "\n" + ",".join(RECORD) + "\n")
        assert _load_columns(path).tolist() == [[1000, ip("10.0.0.1"), 443,
                                                 ip("10.0.0.2"), 80, 6, 60]]

    def test_each_address_text_is_parsed_once(self, tmp_path, monkeypatch):
        texts = []

        def counting(text):
            texts.append(text)
            return parse_ipv4(text)

        monkeypatch.setattr(flow_meter, "parse_ipv4", counting)
        hosts = ["10.0.0.1", "10.0.0.2", "192.168.1.7", " 10.0.0.1"]
        path = tmp_path / "packets.txt"
        path.write_text("".join(f"{ts},{hosts[ts % 4]},443,{hosts[ts % 3]},80,6,60\n"
                                for ts in range(200)))
        packets = _load_columns(path)
        assert packets is not None and len(packets) == 200
        assert sorted(texts) == sorted(hosts)
        assert packets[:4, 1].tolist() == [ip(h.strip()) for h in hosts]

    @pytest.mark.parametrize("k", [2, 77, 201])
    def test_malformed_address_names_its_line(self, tmp_path, k):
        lines = [HEADER] + [f"{ts},10.0.0.{ts % 9},443,10.0.0.9,80,6,60"
                            for ts in range(200)]
        lines[k - 1] = lines[k - 1].replace("10.0.0.9", "10.0.0.09")
        path = tmp_path / "packets.txt"
        path.write_text("\n".join(lines) + "\n")
        assert _load_columns(path) is None
        with pytest.raises(ParseError, match=f"^line {k}: dst_ip: malformed IPv4 "
                                             "address '10.0.0.09'$"):
            read_packet_file(path)

    def test_plain_flow_csv_takes_the_fast_path(self, tmp_path, monkeypatch):
        def per_row(*args):
            raise AssertionError("read row by row")

        monkeypatch.setattr(dataset, "_parse_cells", per_row)
        path = tmp_path / "flows.csv"
        path.write_text("src_ip,dst_ip,idle_min,label\n10.0.0.1,167772162,1.5,Tor\n"
                        "1,2,Infinity, nontor\n3,4,5,NonTor\n")
        ds = dataset.load_flow_csv(path, "drop")
        assert ds.X.tolist() == [[ip("10.0.0.1"), 167772162, 1.5], [3, 4, 5]]
        assert (ds.y.tolist(), ds.dropped) == ([1, 0], 1)

    @pytest.mark.parametrize("text", ["", "\n\n", HEADER + "\n", " \n"])
    def test_no_records_and_no_warning(self, tmp_path, text):
        path = tmp_path / "packets.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_packet_file(path).shape == (0, 7)
