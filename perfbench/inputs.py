"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes plain files; the program
under test only ever sees those files. The same seed gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Shape of one packet trace. Each flow has exactly PACKETS_PER_FLOW packets,
# so the packet count of a trace does not depend on the seed.
FLOWS_PER_TRACE = 1000
PACKETS_PER_FLOW = 100
START_SPREAD_S = 240.0  # flow starts are spread over this window
IDLE_GAP_P = 0.02  # per gap: an idle gap past the 5 s activity timeout
SPLIT_FLOW_P = 0.03  # per flow: one gap past the 120 s flow timeout

# Class traits. Tor relays fixed-size cells at a brisk pace; the nonTor
# mix has variable payloads and slower, burstier gaps.
TRACE_CLASSES = {
    "Tor": {"mean_gap_s": 0.3, "cell_bytes": 586},
    "NonTor": {"mean_gap_s": 0.8, "cell_bytes": None},
}


def _ip(value: int) -> str:
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def write_packet_trace(path: Path, label: str, seed: int) -> int:
    """Write one class's trace in the seven-field record layout.

    Fields: timestamp_us, src_ip, src_port, dst_ip, dst_port, protocol,
    bytes, sorted by timestamp. Both classes share the client and server
    address pools and the server port, so only timing and sizes tell them
    apart. Returns the number of packet records written.
    """
    traits = TRACE_CLASSES[label]
    rng = np.random.default_rng([seed, list(TRACE_CLASSES).index(label)])
    n, k = FLOWS_PER_TRACE, PACKETS_PER_FLOW
    gaps = rng.exponential(traits["mean_gap_s"], size=(n, k - 1))
    idle = rng.random((n, k - 1)) < IDLE_GAP_P
    gaps[idle] = rng.uniform(6.0, 30.0, size=int(idle.sum()))
    split = np.flatnonzero(rng.random(n) < SPLIT_FLOW_P)
    gaps[split, rng.integers(0, k - 1, size=len(split))] = rng.uniform(
        130.0, 200.0, size=len(split))
    starts = rng.uniform(0.0, START_SPREAD_S, size=n)
    times_us = np.rint(1e6 * np.column_stack(
        [starts, starts[:, None] + np.cumsum(gaps, axis=1)])).astype(np.int64)

    # The first packet of a flow goes client -> server; later ones either way.
    forward = rng.random((n, k)) < 0.5
    forward[:, 0] = True
    if traits["cell_bytes"] is None:
        sizes = np.clip(rng.lognormal(6.0, 1.0, size=(n, k)), 40, 1460)
        sizes = sizes.astype(np.int64)
    else:
        sizes = np.full((n, k), traits["cell_bytes"], dtype=np.int64)

    client_ports = rng.integers(32768, 61000, size=n)
    servers = rng.integers(0, 50, size=n)
    fwd_prefix, bwd_prefix = [], []
    for i in range(n):
        client = _ip(0x0A000000 + (i // 250 << 8) + i % 250 + 1)
        server = _ip(0x5DB80000 + int(servers[i]) + 1)
        port = int(client_ports[i])
        fwd_prefix.append(f"{client},{port},{server},443,6,")
        bwd_prefix.append(f"{server},443,{client},{port},6,")

    flat_ts = times_us.ravel()
    order = np.argsort(flat_ts, kind="stable")
    flow_of = order // k
    ts_list = flat_ts[order].tolist()
    fwd_list = forward.ravel()[order].tolist()
    size_list = sizes.ravel()[order].tolist()
    lines = ["timestamp_us,src_ip,src_port,dst_ip,dst_port,protocol,bytes"]
    for ts, flow, fwd, size in zip(ts_list, flow_of.tolist(), fwd_list, size_list):
        prefix = fwd_prefix[flow] if fwd else bwd_prefix[flow]
        lines.append(f"{ts},{prefix}{size}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(ts_list)


def write_flow_table(path: Path, rows_per_class: int, separation: float,
                     seed: int) -> int:
    """Write a labelled 28-column flow CSV through the program's own writer.

    Four informative columns whose class means differ by `separation` in
    each coordinate (so the classes overlap), two near-duplicates of them
    and 22 noise columns, named after the flow-meter layout. Returns the
    number of data rows written.
    """
    from flowsieve.dataset import SyntheticSpec, generate_synthetic, write_csv
    from flowsieve.flow_meter import FEATURE_COLUMNS

    spec = SyntheticSpec(
        class_means=((0.0,) * 4, (separation,) * 4),
        rows_per_class=(rows_per_class, rows_per_class),
        duplicates=((0, 0.05), (1, 0.05)),
        n_noise=22,
        feature_names=FEATURE_COLUMNS,
    )
    ds, _roles = generate_synthetic(spec, seed=seed)
    write_csv(ds, path)
    return ds.n_examples
