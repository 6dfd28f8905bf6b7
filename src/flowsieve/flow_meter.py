"""Bidirectional flow metering: packet records to per-flow timing features.

Packets sharing a canonical 5-tuple key are grouped into flows (split when
the gap to the previous packet exceeds the flow timeout) and summarized into
one row of 28 floats in FEATURE_COLUMNS order: endpoint identifiers,
duration, byte and packet rates, inter-arrival time statistics (overall and
per direction), and active/idle burst statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import DataError, open_text

TCP = 6
UDP = 17
SUPPORTED_PROTOCOLS = (TCP, UDP)

DEFAULT_ACTIVITY_TIMEOUT_US = 5_000_000
DEFAULT_FLOW_TIMEOUT_US = 120_000_000

# Canonical feature order; the flow CSV is these 28 columns plus "label".
FEATURE_COLUMNS = (
    "src_ip", "src_port", "dst_ip", "dst_port", "protocol",
    "flow_duration", "flow_bytes_per_s", "flow_packets_per_s",
    "flow_iat_mean", "flow_iat_std", "flow_iat_max", "flow_iat_min",
    "fwd_iat_mean", "fwd_iat_std", "fwd_iat_max", "fwd_iat_min",
    "bwd_iat_mean", "bwd_iat_std", "bwd_iat_max", "bwd_iat_min",
    "active_mean", "active_std", "active_max", "active_min",
    "idle_mean", "idle_std", "idle_max", "idle_min",
)
CSV_COLUMNS = FEATURE_COLUMNS + ("label",)


class ParseError(DataError):
    """A packet record field failed validation; message names field and line."""


class OutOfOrderError(DataError):
    """Packet file not sorted by timestamp; message names the line."""


class FourStats(NamedTuple):
    mean: float
    std: float
    max: float
    min: float


ZERO_STATS = FourStats(0.0, 0.0, 0.0, 0.0)


class PacketRecord(NamedTuple):
    """One timestamped packet observation. IPs are 32-bit unsigned ints."""

    timestamp_us: int
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    protocol: int
    payload_bytes: int


class FlowKey(NamedTuple):
    """Direction-independent conversation key; endpoint_a <= endpoint_b."""

    endpoint_a: tuple[int, int]
    endpoint_b: tuple[int, int]
    protocol: int


@dataclass
class MeterConfig:
    activity_timeout_us: int = DEFAULT_ACTIVITY_TIMEOUT_US
    flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US

    def __post_init__(self):
        if self.activity_timeout_us <= 0 or self.flow_timeout_us <= 0:
            raise ValueError("timeouts must be positive")
        if self.activity_timeout_us > self.flow_timeout_us:
            raise ValueError("activity timeout must not exceed flow timeout")


@dataclass
class FlowAccumulator:
    """In-progress state of one flow. Forward = orientation of first packet."""

    key: FlowKey
    initiator: tuple[int, int]
    responder: tuple[int, int]
    first_ts: int
    last_ts: int
    byte_count: int = 0
    timestamps_fwd: list[int] = field(default_factory=list)
    timestamps_bwd: list[int] = field(default_factory=list)
    timestamps_all: list[int] = field(default_factory=list)

    @property
    def packet_count(self) -> int:
        return len(self.timestamps_fwd) + len(self.timestamps_bwd)


def parse_ipv4(text: str) -> int | None:
    """Dotted-decimal IPv4 text as a 32-bit int, or None if malformed.

    Surrounding whitespace is ignored. Accepted: four ASCII-decimal octets
    of 1-3 digits, each 0-255, without leading zeros (the form the standard
    library's IPv4Address accepts).
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        return None
    value = 0
    for part in parts:
        if (not (part.isascii() and part.isdigit()) or len(part) > 3
                or (part[0] == "0" and part != "0")):
            return None
        octet = int(part)
        if octet > 255:
            return None
        value = value << 8 | octet
    return value


def _parse_ip(text: str, fieldname: str, line_number: int,
              ips: dict[str, int]) -> int:
    """parse_ipv4, remembered in `ips` under the raw field text."""
    value = parse_ipv4(text)
    if value is None:
        raise ParseError(f"line {line_number}: {fieldname}: "
                         f"malformed IPv4 address {text.strip()!r}")
    ips[text] = value
    return value


def _stripped_int(text: str, fieldname: str, line_number: int) -> int:
    """int() of a field that int() rejected as it stood. int() skips the
    same surrounding whitespace as str.strip() except U+001C-U+001F."""
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"line {line_number}: {fieldname}: "
                         f"not an integer: {text.strip()!r}") from None


def _record(fields: list[str], line_number: int,
            ips: dict[str, int]) -> PacketRecord:
    """Validate the split fields of one record, in field order.

    int() skips surrounding whitespace itself, so a field is stripped only
    when int() rejects it as it stands.
    """
    if len(fields) != 7:
        raise ParseError(f"line {line_number}: expected 7 fields, got {len(fields)}")
    ts_text, src_text, sport_text, dst_text, dport_text, proto_text, size_text = fields
    try:
        ts = int(ts_text)
    except ValueError:
        ts = _stripped_int(ts_text, "timestamp_us", line_number)
    if ts < 0:
        raise ParseError(f"line {line_number}: timestamp_us: negative value {ts}")
    src_ip = ips.get(src_text)
    if src_ip is None:
        src_ip = _parse_ip(src_text, "src_ip", line_number, ips)
    try:
        src_port = int(sport_text)
    except ValueError:
        src_port = _stripped_int(sport_text, "src_port", line_number)
    dst_ip = ips.get(dst_text)
    if dst_ip is None:
        dst_ip = _parse_ip(dst_text, "dst_ip", line_number, ips)
    try:
        dst_port = int(dport_text)
    except ValueError:
        dst_port = _stripped_int(dport_text, "dst_port", line_number)
    if not 0 <= src_port <= 65535:
        raise ParseError(f"line {line_number}: src_port: port out of range: {src_port}")
    if not 0 <= dst_port <= 65535:
        raise ParseError(f"line {line_number}: dst_port: port out of range: {dst_port}")
    try:
        protocol = int(proto_text)
    except ValueError:
        protocol = _stripped_int(proto_text, "protocol", line_number)
    if protocol not in SUPPORTED_PROTOCOLS:
        raise ParseError(f"line {line_number}: protocol: unsupported protocol {protocol}")
    try:
        payload = int(size_text)
    except ValueError:
        payload = _stripped_int(size_text, "bytes", line_number)
    if payload < 0:
        raise ParseError(f"line {line_number}: bytes: negative value {payload}")
    # tuple.__new__ skips the Python-level NamedTuple constructor.
    return tuple.__new__(PacketRecord, (ts, src_ip, src_port, dst_ip, dst_port,
                                        protocol, payload))


def parse_packet_record(row: str, line_number: int = 0) -> PacketRecord:
    """Parse one comma-separated packet record.

    Expected fields: timestamp_us, src_ip, src_port, dst_ip, dst_port,
    protocol, bytes. Raises ParseError naming the offending field and line.
    """
    return _record(row.split(","), line_number, {})


def read_packet_file(path) -> list[PacketRecord]:
    """Read a packet-record text file; a non-numeric first field marks a header.

    Address texts are parsed once per file: a record's IPs are looked up in
    a dict of the distinct address strings seen so far. Records must be in
    timestamp order; a regression raises OutOfOrderError naming its line.
    """
    records = []
    ips: dict[str, int] = {}
    prev_ts = 0
    with open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            fields = line.split(",")
            if line_number == 1:
                try:
                    int(fields[0].strip())
                except ValueError:
                    continue  # header line
            record = _record(fields, line_number, ips)
            if record[0] < prev_ts:
                raise OutOfOrderError(
                    f"line {line_number}: out-of-order timestamp: "
                    f"{record[0]} < {prev_ts}")
            prev_ts = record[0]
            records.append(record)
    return records


def assemble_flows(packets: Iterable[PacketRecord],
                   cfg: MeterConfig | None = None) -> list[FlowAccumulator]:
    """Group a time-sorted packet stream into bidirectional flows.

    A packet joins the open flow with its key iff the gap since that flow's
    last packet is within the flow timeout; otherwise the flow is closed and
    a new one opened. The stream must be in timestamp order, as
    read_packet_file checks.
    """
    cfg = cfg or MeterConfig()
    timeout = cfg.flow_timeout_us
    # Keyed by the plain (endpoint_a, endpoint_b, protocol) tuple, endpoints
    # ordered by (ip, port); it hashes and compares equal to the FlowKey
    # stored on the flow.
    open_flows: dict[tuple, FlowAccumulator] = {}
    closed: list[FlowAccumulator] = []
    for ts, src_ip, src_port, dst_ip, dst_port, protocol, size in packets:
        src = (src_ip, src_port)
        dst = (dst_ip, dst_port)
        key = (src, dst, protocol) if src <= dst else (dst, src, protocol)
        flow = open_flows.get(key)
        if flow is not None and ts - flow.last_ts > timeout:
            closed.append(flow)
            flow = None
        if flow is None:
            flow = FlowAccumulator(FlowKey._make(key), src, dst, ts, ts)
            open_flows[key] = flow
        if src == flow.initiator:
            flow.timestamps_fwd.append(ts)
        else:
            flow.timestamps_bwd.append(ts)
        flow.timestamps_all.append(ts)
        flow.byte_count += size
        flow.last_ts = ts
    closed.extend(open_flows.values())
    closed.sort(key=lambda f: (f.first_ts, f.key.endpoint_a, f.key.endpoint_b,
                               f.key.protocol))
    return closed


def stats_summary(values: list[float]) -> FourStats:
    """(mean, population std, max, min); the empty list maps to all zeros."""
    if not values:
        return ZERO_STATS
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return FourStats(float(mean), math.sqrt(var), float(max(values)), float(min(values)))


def segment_active_idle(timestamps: list[int],
                        activity_timeout_us: int) -> tuple[list[int], list[int]]:
    """Split a flow's timeline into active bursts and idle gaps.

    Gaps within the activity timeout extend the current burst; larger gaps
    close it and are recorded as idle durations. Zero-length bursts
    (single-packet bursts) are dropped so active minima stay meaningful.
    """
    if not timestamps:
        raise ValueError("empty timestamp list")
    active: list[int] = []
    idle: list[int] = []
    burst_start = prev = timestamps[0]
    for ts in timestamps[1:]:
        gap = ts - prev
        if gap > activity_timeout_us:
            if prev > burst_start:
                active.append(prev - burst_start)
            idle.append(gap)
            burst_start = ts
        prev = ts
    if prev > burst_start:
        active.append(prev - burst_start)
    return active, idle


def compute_features(flow: FlowAccumulator,
                     cfg: MeterConfig | None = None) -> list[float]:
    """Summarize a completed flow into its 28 features, in FEATURE_COLUMNS
    order."""
    cfg = cfg or MeterConfig()
    duration_us = flow.last_ts - flow.first_ts
    duration_s = duration_us / 1e6
    if duration_s > 0:
        bytes_per_s = flow.byte_count / duration_s
        packets_per_s = flow.packet_count / duration_s
    else:
        bytes_per_s = packets_per_s = 0.0  # zero-duration policy

    def iats(ts: list[int]) -> list[int]:
        return [b - a for a, b in zip(ts, ts[1:])]

    active, idle = segment_active_idle(flow.timestamps_all, cfg.activity_timeout_us)
    row = [float(flow.initiator[0]), float(flow.initiator[1]),
           float(flow.responder[0]), float(flow.responder[1]),
           float(flow.key.protocol), duration_s, bytes_per_s, packets_per_s]
    for values in (iats(flow.timestamps_all), iats(flow.timestamps_fwd),
                   iats(flow.timestamps_bwd), active, idle):
        row.extend(stats_summary(values))
    return row


def format_cell(value: float) -> str:
    """Integral values print exactly; others with 6 significant digits.

    A value whose 6-digit rounding is integral prints as that integer, so
    rewriting a CSV produced by this formatter is byte-stable.
    """
    if value == int(value) and abs(value) < 2 ** 53:
        return str(int(value))
    rounded = float(f"{value:.6g}")
    if rounded == int(rounded) and abs(rounded) < 2 ** 53:
        return str(int(rounded))
    return f"{value:.6g}"


def format_cells(values: list[float]) -> list[str]:
    """format_cell of each float, with its two common cases inline.

    An integral value below 2**53 prints as that integer. Otherwise a
    6-significant-digit text with a point and no exponent is fixed
    notation with a non-zero fractional digit, so the value and its
    rounding are both non-integral and format_cell would return that text.
    """
    return [str(int(v)) if v.is_integer() and abs(v) < 2 ** 53
            else text if "." in (text := f"{v:.6g}") and "e" not in text
            else format_cell(v) for v in values]


def write_flow_csv(rows: Iterable[list[float]], path, label: str) -> None:
    """Write the 29-column flow CSV: the header, then each feature row with
    the capture's one label."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(format_cells(row)) + f",{label}\n")


def meter_packets(packets: list[PacketRecord],
                  cfg: MeterConfig | None = None) -> list[list[float]]:
    """Assemble flows and compute each one's feature row."""
    cfg = cfg or MeterConfig()
    return [compute_features(flow, cfg) for flow in assemble_flows(packets, cfg)]
