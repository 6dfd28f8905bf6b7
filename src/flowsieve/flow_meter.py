"""Bidirectional flow metering: packet records to per-flow timing features.

Packets sharing a canonical 5-tuple key are grouped into flows (split when
the gap to the previous packet exceeds the flow timeout) and summarized into
one row of 28 floats in FEATURE_COLUMNS order: endpoint identifiers,
duration, byte and packet rates, inter-arrival time statistics (overall and
per direction), and active/idle burst statistics. Packets are held as the
columns of one int64 array, and flows are grouped and summarized with
numpy, all flows at once.
"""

from __future__ import annotations

import ipaddress
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Conflict, DataError, open_text

TCP = 6
UDP = 17
SUPPORTED_PROTOCOLS = (TCP, UDP)

# Exclusive field bounds that keep the int64 packet columns exact: float64
# holds every integer below 2**53, and the bytes of up to 2**31 packets
# below 2**32 each sum below 2**63.
TIMESTAMP_LIMIT = 2 ** 53
BYTES_LIMIT = 2 ** 32

DEFAULT_ACTIVITY_TIMEOUT_US = 5_000_000
DEFAULT_FLOW_TIMEOUT_US = 120_000_000

# Canonical feature order: the columns of compute_features' table.
FEATURE_COLUMNS = (
    "src_ip", "src_port", "dst_ip", "dst_port", "protocol",
    "flow_duration", "flow_bytes_per_s", "flow_packets_per_s",
    "flow_iat_mean", "flow_iat_std", "flow_iat_max", "flow_iat_min",
    "fwd_iat_mean", "fwd_iat_std", "fwd_iat_max", "fwd_iat_min",
    "bwd_iat_mean", "bwd_iat_std", "bwd_iat_max", "bwd_iat_min",
    "active_mean", "active_std", "active_max", "active_min",
    "idle_mean", "idle_std", "idle_max", "idle_min",
)


class PacketRecord(NamedTuple):
    """One timestamped packet observation. IPs are 32-bit unsigned ints."""

    timestamp_us: int
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    protocol: int
    payload_bytes: int


@dataclass
class MeterConfig:
    activity_timeout_us: int = DEFAULT_ACTIVITY_TIMEOUT_US
    flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US

    def __post_init__(self):
        if self.activity_timeout_us <= 0 or self.flow_timeout_us <= 0:
            raise ValueError("timeouts must be positive")
        if self.activity_timeout_us > self.flow_timeout_us:
            raise Conflict("activity timeout must not exceed flow timeout",
                           ("activity_timeout_us", "flow_timeout_us"))


def parse_ipv4(text: str) -> int | None:
    """IPv4 text as a 32-bit int, or None if malformed: what the standard
    library's IPv4Address accepts once surrounding whitespace is stripped."""
    try:
        return int(ipaddress.IPv4Address(text.strip()))
    except ValueError:  # AddressValueError is a ValueError
        return None


class Addresses(dict):
    """parse_ipv4 of each address text, keyed by the raw text and parsed on
    its first lookup; a text that is not an address raises KeyError and is
    not kept. As a converter, the bound __getitem__ finds a text already
    seen in C. Each read of a file makes its own."""

    def __missing__(self, text: str) -> int:
        if (value := parse_ipv4(text)) is None:
            raise KeyError(text)
        self[text] = value
        return value


def _integer(text: str, fieldname: str) -> int:
    """int() of a stripped field."""
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"{fieldname}: not an integer: {text.strip()!r}") from None


def _address(text: str, fieldname: str, ips: Addresses) -> int:
    """The address a field holds, looked up in the file's memo."""
    try:
        return ips[text]
    except KeyError:
        raise ValueError(f"{fieldname}: malformed IPv4 address {text.strip()!r}") from None


def _below(text: str, limit: int, fieldname: str) -> int:
    """_integer of a field that must lie in [0, limit), a power of two."""
    value = _integer(text, fieldname)
    if value < 0:
        raise ValueError(f"{fieldname}: negative value {value}")
    if value >= limit:
        raise ValueError(f"{fieldname}: too large: {value} "
                         f"(must be below 2**{limit.bit_length() - 1})")
    return value


def _record(fields: list[str], ips: Addresses) -> PacketRecord:
    """Validate the split fields of one record, in field order; each port's
    range is checked once both ports have parsed. A bad field raises
    ValueError("FIELD: REASON")."""
    if len(fields) != 7:
        raise ValueError(f"expected 7 fields, got {len(fields)}")
    ts_text, src_text, sport_text, dst_text, dport_text, proto_text, size_text = fields
    ts = _below(ts_text, TIMESTAMP_LIMIT, "timestamp_us")
    src_ip = _address(src_text, "src_ip", ips)
    src_port = _integer(sport_text, "src_port")
    dst_ip = _address(dst_text, "dst_ip", ips)
    dst_port = _integer(dport_text, "dst_port")
    for fieldname, port in (("src_port", src_port), ("dst_port", dst_port)):
        if not 0 <= port <= 65535:
            raise ValueError(f"{fieldname}: port out of range: {port}")
    protocol = _integer(proto_text, "protocol")
    if protocol not in SUPPORTED_PROTOCOLS:
        raise ValueError(f"protocol: unsupported protocol {protocol}")
    payload = _below(size_text, BYTES_LIMIT, "bytes")
    return PacketRecord(ts, src_ip, src_port, dst_ip, dst_port, protocol, payload)


def _is_header(line: str) -> bool:
    """A first line whose first field is not an integer is a header."""
    if line.isspace():
        return False
    try:
        int(line.split(",")[0].strip())
    except ValueError:
        return True
    return False


def _read_records(path) -> list[PacketRecord]:
    """Parse a packet file line by line. The first bad line raises DataError
    naming the file and the line."""
    records = []
    ips = Addresses()
    prev_ts = 0
    with open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.isspace() or (line_number == 1 and _is_header(line)):
                continue
            try:
                record = _record(line.split(","), ips)
                if record[0] < prev_ts:
                    raise ValueError(f"out-of-order timestamp: {record[0]} < {prev_ts}")
            except ValueError as exc:
                raise DataError(f"{path}: line {line_number}: {exc}") from None
            prev_ts = record[0]
            records.append(record)
    return records


def c_parse(handle, dtype, converters) -> np.ndarray | None:
    """The comma-separated lines left in `handle` as an (n, k) array from
    numpy's C reader, or None when a cell fails, a converter raises or numpy
    warns (as it does on no rows). A UnicodeDecodeError is caught too: the
    caller's per-line reader decides which error a file with several reports."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(handle, delimiter=",", dtype=dtype, comments=None,
                              ndmin=2, converters=converters)
        except (ValueError, Warning):
            return None


def _load_columns(path) -> np.ndarray | None:
    """The records of a packet file parsed by c_parse, or None when c_parse
    rejects the text or a record fails a check _record makes.

    numpy accepts a subset of what _read_records accepts: it rejects, for
    example, blank lines that hold spaces, `1_000` and non-ASCII digits.
    """
    ip = Addresses().__getitem__  # numpy turns its KeyError into a ValueError
    with open_text(path) as handle:
        try:
            if not _is_header(handle.readline()):
                handle.seek(0)
        except UnicodeDecodeError:  # left to the per-line reader
            return None
        packets = c_parse(handle, np.int64, {1: ip, 3: ip})
    if packets is None or packets.shape[1] != len(PacketRecord._fields):
        return None
    ts, ports, protocol, size = packets[:, 0], packets[:, 2:5:2], packets[:, 5], packets[:, 6]
    valid = (np.all((ts >= 0) & (ts < TIMESTAMP_LIMIT)) and np.all(ts[1:] >= ts[:-1])
             and np.all((ports >= 0) & (ports <= 65535))
             and np.all((protocol == TCP) | (protocol == UDP))
             and np.all((size >= 0) & (size < BYTES_LIMIT)))
    return packets if valid else None


def read_packet_file(path) -> np.ndarray:
    """Read a packet-record text file into an (n, 7) int64 array whose
    columns are the PacketRecord fields; a non-numeric first field marks a
    header. A file numpy's reader rejects is read again line by line, which
    accepts what int() accepts and raises DataError naming the file and its
    first bad line."""
    packets = _load_columns(path)
    if packets is None:
        packets = np.array(_read_records(path), dtype=np.int64).reshape(-1, 7)
    return packets


class Flows(NamedTuple):
    """Packets grouped into bidirectional flows, the flows in
    (first_ts, endpoint_a, endpoint_b, protocol) order. Each flow's packets
    are contiguous and in time order, and its first packet, sent by the
    initiator, is at its index in `starts`."""

    packets: np.ndarray
    starts: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        """Packets per flow."""
        return np.diff(self.starts, append=len(self.packets))


def assemble_flows(packets: np.ndarray, cfg: MeterConfig | None = None) -> Flows:
    """Group a time-sorted (n, 7) packet array into bidirectional flows.

    Packets share a flow key when they join the same two (ip, port)
    endpoints over the same protocol. A packet joins the flow of the key's
    previous packet iff the gap between them is within the flow timeout.
    The array must be in timestamp order, as read_packet_file checks.
    """
    cfg = cfg or MeterConfig()
    src = packets[:, 1] << 16 | packets[:, 2]  # (ip, port) order as one integer
    dst = packets[:, 3] << 16 | packets[:, 4]
    endpoint_a = np.minimum(src, dst)
    endpoint_b = np.maximum(src, dst) << 1 | (packets[:, 5] == UDP)  # and the protocol
    by_key = np.lexsort((endpoint_b, endpoint_a))  # stable: time order within a key
    endpoint_a, endpoint_b = endpoint_a[by_key], endpoint_b[by_key]
    ts = packets[by_key, 0]
    new_flow = np.ones(len(ts), dtype=bool)
    new_flow[1:] = ((endpoint_a[1:] != endpoint_a[:-1]) | (endpoint_b[1:] != endpoint_b[:-1])
                    | (ts[1:] - ts[:-1] > cfg.flow_timeout_us))
    starts = np.flatnonzero(new_flow)
    sizes = np.diff(starts, append=len(ts))
    order = np.lexsort((endpoint_b[starts], endpoint_a[starts], ts[starts]))
    # Each packet moves with its flow to the flow's place in `order`.
    grouped = by_key[np.argsort(np.repeat(np.argsort(order), sizes), kind="stable")]
    sizes = sizes[order]
    return Flows(packets[grouped], np.cumsum(sizes) - sizes)


def _four_stats(values: np.ndarray, flow: np.ndarray, n_flows: int) -> np.ndarray:
    """(mean, population std, max, min) of the int64 `values` of each flow,
    where `flow` (non-decreasing) names each value's flow; a flow without
    values gets zeros.

    Each variance is numpy's `reduceat` sum of `d * d` over the flow's
    deviations, which defines its bits: `np.add.reduce` and Python's sum()
    can round differently.
    """
    stats = np.zeros((n_flows, 4))
    new_flow = np.ones(len(flow), dtype=bool)
    new_flow[1:] = flow[1:] != flow[:-1]
    starts = np.flatnonzero(new_flow)
    counts = np.diff(starts, append=len(values))
    # Sums stay below 2**53 (timestamps do), so each mean is correctly rounded.
    means = np.add.reduceat(values, starts) / counts
    d = values - np.repeat(means, counts)
    rows = flow[starts]
    stats[rows, 0] = means
    stats[rows, 1] = np.sqrt(np.add.reduceat(d * d, starts) / counts)
    stats[rows, 2] = np.maximum.reduceat(values, starts)
    stats[rows, 3] = np.minimum.reduceat(values, starts)
    return stats


def _gaps(ts: np.ndarray, flow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gaps between consecutive timestamps of one flow, and their flows."""
    same = flow[1:] == flow[:-1]
    return (ts[1:] - ts[:-1])[same], flow[1:][same]


def compute_features(flows: Flows, cfg: MeterConfig | None = None) -> np.ndarray:
    """Summarize each flow into its 28 features, in FEATURE_COLUMNS order:
    an (n_flows, 28) float64 array.

    Forward packets are those the initiator sent. Active bursts are the runs
    of packets whose gaps are within the activity timeout; a burst of zero
    length is dropped. Idle periods are the gaps above that timeout.
    """
    cfg = cfg or MeterConfig()
    packets, starts = flows
    sizes = flows.sizes
    n_flows = len(starts)
    flow = np.repeat(np.arange(n_flows), sizes)
    ts = packets[:, 0]
    first = packets[starts]
    table = np.zeros((n_flows, len(FEATURE_COLUMNS)))
    table[:, 0:5] = first[:, 1:6]  # src_ip, src_port, dst_ip, dst_port, protocol
    duration_s = (ts[starts + sizes - 1] - first[:, 0]) / 1e6
    table[:, 5] = duration_s
    moving = duration_s > 0  # a zero-duration flow has zero rates
    np.divide(np.add.reduceat(packets[:, 6], starts), duration_s, out=table[:, 6],
              where=moving)
    np.divide(sizes, duration_s, out=table[:, 7], where=moving)

    gap, gap_flow = _gaps(ts, flow)
    forward = (packets[:, 1] == first[flow, 1]) & (packets[:, 2] == first[flow, 2])
    idle = gap > cfg.activity_timeout_us
    new_burst = np.ones(len(ts), dtype=bool)
    new_burst[1:] = (flow[1:] != flow[:-1]) | (ts[1:] - ts[:-1] > cfg.activity_timeout_us)
    burst_starts = np.flatnonzero(new_burst)
    active = np.maximum.reduceat(ts, burst_starts) - ts[burst_starts]
    groups = [(gap, gap_flow), _gaps(ts[forward], flow[forward]),
              _gaps(ts[~forward], flow[~forward]),
              (active[active > 0], flow[burst_starts][active > 0]),
              (gap[idle], gap_flow[idle])]
    for column, (values, value_flow) in zip(range(8, 28, 4), groups):
        table[:, column:column + 4] = _four_stats(values, value_flow, n_flows)
    return table


def meter_packets(packets: np.ndarray, cfg: MeterConfig | None = None) -> np.ndarray:
    """Assemble flows and compute each one's feature row, in the flows'
    (first_ts, endpoint_a, endpoint_b, protocol) order: an (n_flows, 28)
    array."""
    cfg = cfg or MeterConfig()
    return compute_features(assemble_flows(packets, cfg), cfg)
