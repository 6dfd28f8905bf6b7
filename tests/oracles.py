"""Independent brute-force oracles used to cross-check the implementation.

Everything here is deliberately written from the definitions, on a different
code path (numpy statistics, repeated filtering) than the production code,
or is an implementation the production code replaced, kept as the reference
it must match (the per-packet meter, the per-cell flow CSV reader, the
per-column Pearson correlation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


def oracle_key(pkt) -> tuple:
    ends = sorted([(pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)])
    return (ends[0], ends[1], pkt.protocol)


def oracle_flows(packets, flow_timeout_us: int) -> list[list]:
    """Regroup packets into flows by scanning each key's packets separately."""
    flows = []
    for key in sorted(set(oracle_key(p) for p in packets)):
        mine = [p for p in packets if oracle_key(p) == key]
        current = [mine[0]]
        for pkt in mine[1:]:
            if pkt.timestamp_us - current[-1].timestamp_us > flow_timeout_us:
                flows.append(current)
                current = [pkt]
            else:
                current.append(pkt)
        flows.append(current)
    flows.sort(key=lambda f: (f[0].timestamp_us, oracle_key(f[0])))
    return flows


def oracle_stats(values) -> tuple[float, float, float, float]:
    if len(values) == 0:
        return (0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(values, dtype=np.float64)
    return (float(arr.mean()), float(arr.std()), float(arr.max()), float(arr.min()))


def oracle_active_idle(timestamps, activity_timeout_us):
    """Burst segmentation recomputed via explicit gap classification."""
    ts = np.asarray(timestamps, dtype=np.int64)
    gaps = np.diff(ts)
    idle = [int(g) for g in gaps if g > activity_timeout_us]
    # Bursts are the maximal runs between idle gaps.
    active = []
    burst_start = 0
    for i, g in enumerate(gaps):
        if g > activity_timeout_us:
            length = int(ts[i] - ts[burst_start])
            if length > 0:
                active.append(length)
            burst_start = i + 1
    length = int(ts[-1] - ts[burst_start])
    if length > 0:
        active.append(length)
    return active, idle


def oracle_features(flow_packets, activity_timeout_us: int) -> list[float]:
    """The 28 features recomputed directly from one flow's packet list."""
    first = flow_packets[0]
    src = (first.src_ip, first.src_port)
    dst = (first.dst_ip, first.dst_port)
    all_ts = [p.timestamp_us for p in flow_packets]
    fwd_ts = [p.timestamp_us for p in flow_packets
              if (p.src_ip, p.src_port) == src]
    bwd_ts = [p.timestamp_us for p in flow_packets
              if (p.src_ip, p.src_port) != src]
    total_bytes = sum(p.payload_bytes for p in flow_packets)
    duration_us = all_ts[-1] - all_ts[0]
    duration_s = duration_us / 1e6
    if duration_s > 0:
        bytes_per_s = total_bytes / duration_s
        packets_per_s = len(flow_packets) / duration_s
    else:
        bytes_per_s = packets_per_s = 0.0
    active, idle = oracle_active_idle(all_ts, activity_timeout_us)
    row = [float(src[0]), float(src[1]), float(dst[0]), float(dst[1]),
           float(first.protocol), duration_s, bytes_per_s, packets_per_s]
    for ts in (all_ts, fwd_ts, bwd_ts):
        row.extend(oracle_stats(np.diff(ts)))
    row.extend(oracle_stats(active))
    row.extend(oracle_stats(idle))
    return row


# ---------------------------------------------------------------- reference meter
# The per-packet meter flowsieve.flow_meter replaced with numpy columns:
# one accumulator per flow, fed one packet tuple at a time. The columnar
# meter must give the same rows, bit for bit.


class FourStats(NamedTuple):
    mean: float
    std: float
    max: float
    min: float


ZERO_STATS = FourStats(0.0, 0.0, 0.0, 0.0)


class FlowKey(NamedTuple):
    """Direction-independent conversation key; endpoint_a <= endpoint_b."""

    endpoint_a: tuple[int, int]
    endpoint_b: tuple[int, int]
    protocol: int


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


def accumulate_flows(packets, cfg=None) -> list[FlowAccumulator]:
    """Group a time-sorted stream of packet tuples into bidirectional flows.

    A packet joins the open flow with its key iff the gap since that flow's
    last packet is within the flow timeout; otherwise the flow is closed and
    a new one opened. Flows come in (first_ts, key) order.
    """
    from flowsieve.flow_meter import MeterConfig

    timeout = (cfg or MeterConfig()).flow_timeout_us
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
    """(mean, population std, max, min); the empty list maps to all zeros.
    The variance sums the squared deviations in numpy's `reduceat` order,
    as flow_meter does."""
    if not values:
        return ZERO_STATS
    n = len(values)
    mean = sum(values) / n
    d = np.asarray(values, dtype=np.float64) - mean
    var = float(np.add.reduceat(d * d, [0])[0]) / n
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


def flow_features(flow: FlowAccumulator, cfg=None) -> list[float]:
    """Summarize a completed flow into its 28 features, in FEATURE_COLUMNS
    order."""
    from flowsieve.flow_meter import MeterConfig

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


def reference_meter(packets, cfg=None) -> list[list[float]]:
    """The per-packet meter's rows for a stream of packet tuples."""
    return [flow_features(flow, cfg) for flow in accumulate_flows(packets, cfg)]


def packet_array(packets) -> np.ndarray:
    """Packet tuples as the (n, 7) int64 array read_packet_file returns."""
    return np.array(packets, dtype=np.int64).reshape(-1, 7)


def correlation(x, y) -> float:
    """Pearson correlation; either column constant gives 0 by convention."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    r = float(xc @ yc) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def reference_stats(ds):
    """CorrelationStats built pair by pair from correlation() above."""
    from flowsieve.cfs import CorrelationStats

    n = ds.n_features
    rcf = np.array([abs(correlation(ds.X[:, j], ds.y)) for j in range(n)])
    rff = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            rff[i, j] = rff[j, i] = abs(correlation(ds.X[:, i], ds.X[:, j]))
    return CorrelationStats(rcf, rff)


def direct_merit(indices, stats) -> float:
    """Independent subset-score evaluation: k * mean(rcf) /
    sqrt(k + k(k-1) * mean(rff)), with plain Python means over the subset
    and its unordered pairs."""
    import math

    idx = sorted(indices)
    k = len(idx)
    rcf_bar = sum(stats.feature_class[i] for i in idx) / k
    pairs = [(i, j) for a, i in enumerate(idx) for j in idx[a + 1:]]
    rff_bar = (sum(stats.feature_feature[i, j] for i, j in pairs) / len(pairs)
               if pairs else 0.0)
    return k * rcf_bar / math.sqrt(k + k * (k - 1) * rff_bar)


def exhaustive_search(stats, max_features: int = 20):
    """True argmax of merit over all non-empty subsets, with best-first
    search's tie-break rule (smaller subset, then lexicographic indices).

    Merits are computed once, vectorized over bitmask chunks; the oracle for
    best_first_search on small feature counts.
    """
    from flowsieve.cfs import FeatureSubset, merit

    n = stats.n_features
    if n > max_features or n > 20:
        raise ValueError(f"exhaustive search limited to {min(max_features, 20)} features")
    masks = np.arange(1, 1 << n, dtype=np.int64)
    bit_cols = np.arange(n)
    chunk = 1 << 16
    parts = []
    for start in range(0, len(masks), chunk):
        B = ((masks[start:start + chunk, None] >> bit_cols) & 1).astype(np.float64)
        denom_sq = np.einsum("ij,ij->i", B @ stats.feature_feature, B)
        parts.append(B @ stats.feature_class / np.sqrt(denom_sq))
    merits = np.concatenate(parts)

    # Collect near-ties and resolve by (size, lexicographic indices).
    candidates = masks[merits >= merits.max() - 1e-9]
    sizes = np.array([int(m).bit_count() for m in candidates])
    remaining = candidates[sizes == sizes.min()]
    # Greedy lexicographic selection on the remaining masks.
    chosen: list[int] = []
    while True:
        lowbits = remaining & -remaining
        low_idx = np.log2(lowbits.astype(np.float64)).astype(np.int64)
        target = low_idx.min()
        remaining = remaining[low_idx == target] & ~np.int64(1 << int(target))
        chosen.append(int(target))
        if (remaining == 0).all():
            break
        remaining = np.unique(remaining)
    indices = tuple(sorted(chosen))
    return FeatureSubset(indices=indices, merit=merit(indices, stats), path=indices)


def random_stats(rng: np.random.Generator, n: int):
    """Arbitrary entries in [0,1]; not necessarily a realizable correlation
    structure, so only used for bound checks, not match-rate checks."""
    from flowsieve.cfs import CorrelationStats

    rcf = rng.random(n)
    upper = rng.random((n, n))
    rff = np.triu(upper, 1)
    rff = rff + rff.T
    np.fill_diagonal(rff, 1.0)
    return CorrelationStats(rcf, rff)


def random_realizable_stats(rng: np.random.Generator, n: int):
    """Stats of a random dataset with a planted signal of random strength."""
    from flowsieve.cfs import build_stats
    from flowsieve.dataset import Dataset

    rows = 60
    y = rng.integers(0, 2, rows)
    X = rng.normal(size=(rows, n))
    k_informative = int(rng.integers(1, n))
    X[:, :k_informative] += y[:, None] * rng.uniform(0.2, 2.0, size=k_informative)
    return build_stats(Dataset(tuple(f"f{i}" for i in range(n)), X, y))


def random_mlp_case(rng: np.random.Generator, n_max=6, h_max=5, batch_max=8):
    from flowsieve import mlp

    n = int(rng.integers(1, n_max + 1))
    h = int(rng.integers(1, h_max + 1))
    model = mlp.init_model(n, h, seed=int(rng.integers(1 << 30)))
    batch = int(rng.integers(1, batch_max + 1))
    X = rng.normal(size=(batch, n))
    T = np.zeros((batch, 2))
    T[np.arange(batch), rng.integers(0, 2, batch)] = 1.0
    return model, X, T


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function evaluated separately on z >= 0 and z < 0, each
    side with the exp that cannot overflow there."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def residual_jacobian(model, X, T) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (y - t) and their whole-batch Jacobian, one row per
    (example, output), built in a fresh zeroed matrix with einsum; the
    reference for flowsieve.mlp._fill_jacobian."""
    from flowsieve import mlp

    n = len(X)
    o = model.n_outputs
    h = model.n_hidden
    d = model.n_inputs
    A, Y = mlp.forward(model, X)
    residuals = (Y - T).ravel()  # row 2i+o corresponds to example i, output o
    jac = np.zeros((n * o, model.n_parameters))
    sens = Y * (1.0 - Y)  # (N, o)
    tanh_grad = 1.0 - A ** 2  # (N, h)
    w1, b1, w2, b2 = (block for block, _, _ in mlp._blocks(d, h).values())
    for out in range(o):
        rows = slice(out, n * o, o)
        s = sens[:, out]  # (N,)
        delta_hidden = s[:, None] * model.w2[out][None, :] * tanh_grad  # (N, h)
        jac[rows, w1] = np.einsum("nh,nd->nhd", delta_hidden, X).reshape(n, h * d)
        jac[rows, b1] = delta_hidden
        jac[rows, w2.start + out * h:w2.start + (out + 1) * h] = s[:, None] * A
        jac[rows, b2.start + out] = s
    return residuals, jac


def reference_normal_equations(model, X, T) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r as flowsieve.mlp.normal_equations built them on one
    thread before it took LM's forward pass: each _CHUNK_ROWS-row chunk run
    through its own forward pass and filled in turn into one reused buffer,
    its products added as it is filled. The reference for the build from the
    residual pass, on one worker or two, which must give the same bits."""
    from flowsieve import mlp

    buffer = np.empty((model.n_outputs * min(len(X), mlp._CHUNK_ROWS), model.n_parameters))
    jtj = np.zeros((model.n_parameters, model.n_parameters))
    jtr = np.zeros(model.n_parameters)
    for start in range(0, len(X), mlp._CHUNK_ROWS):
        chunk = slice(start, start + mlp._CHUNK_ROWS)
        A, Y = mlp.forward(model, X[chunk])
        residuals = (Y - T[chunk]).ravel()
        jac = mlp._fill_jacobian(buffer, model, X[chunk], A, Y)
        jtj += jac.T @ jac
        jtr += jac.T @ residuals
    return jtj, jtr


def reference_gradient(model, X, T) -> np.ndarray:
    """flowsieve.mlp.gradient as it was before it took an output buffer: a
    fresh vector per call, each mean by ndarray.mean."""
    from flowsieve import mlp

    n = len(X)
    A, Y = mlp.forward(model, X)
    grad = np.empty(model.n_parameters)
    d_w1, d_b1, d_w2, d_b2 = mlp._split(grad, model.n_inputs, model.n_hidden)
    delta_out = (Y - T) * Y * (1.0 - Y)
    d_w2[:] = delta_out.T @ A / n
    d_b2[:] = delta_out.mean(axis=0)
    delta_hidden = (delta_out @ model.w2) * (1.0 - A ** 2)
    d_w1[:] = delta_hidden.T @ X / n
    d_b1[:] = delta_hidden.mean(axis=0)
    return grad


def reference_train_bp(model, X, T, X_val, T_val, cfg):
    """The per-batch SGD loop flowsieve.mlp.train_bp must match bit for bit:
    each batch fancy-indexes X[batch] and T[batch] and steps along a fresh
    reference_gradient vector."""
    from flowsieve import mlp

    tracker = mlp._BestEpoch(model, X_val, T_val, cfg.patience)
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            model.theta -= cfg.learning_rate * reference_gradient(model, X[batch],
                                                                  T[batch])
        if not tracker.keep_going(model, mlp.loss(model, X, T)):
            tracker.history.stopping_reason = "early_stop"
            break
    else:
        tracker.history.stopping_reason = "max_epochs"
    return tracker.best, tracker.history


def masked_transform(scaler, X) -> np.ndarray:
    """Scaler.transform by gathering the active columns, scaling them and
    scattering them back into a float64 copy of X; passthrough columns are
    copied untouched."""
    out = np.array(X, dtype=np.float64, copy=True)
    active = ~scaler.passthrough
    out[:, active] = (out[:, active] - scaler.mean[active]) / scaler.std[active]
    return out


def fd_gradient(model, X, T, step=1e-6) -> np.ndarray:
    """Central finite differences of the loss over the packed parameters."""
    from flowsieve import mlp

    theta = model.theta.copy()
    layout = (model.n_inputs, model.n_hidden)
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        bumped = theta.copy()
        bumped[i] = theta[i] + step
        up = mlp.loss(mlp.MlpModel(bumped, *layout), X, T)
        bumped[i] = theta[i] - step
        down = mlp.loss(mlp.MlpModel(bumped, *layout), X, T)
        grad[i] = (up - down) / (2 * step)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Normwise relative error. Central differences at step 1e-6 carry about
    1e-10 of absolute roundoff, so per-component ratios are meaningless for
    near-zero gradient entries; the error is scaled by the gradient norm."""
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-12)
    return float(np.abs(a - b).max()) / scale


def project_dual(v: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Exact Euclidean projection onto {0 <= a <= C, y.a = 0} (y in +-1).

    The multiplier for the equality constraint is found on the piecewise
    linear, non-increasing function g(lam) = y . clip(v - lam*y, 0, C) by
    scanning its breakpoints.
    """
    breaks = np.unique(np.concatenate(
        [v[y > 0], v[y > 0] - c, -v[y < 0], c - v[y < 0]]))

    def g(lam: float) -> float:
        return float(y @ np.clip(v - lam * y, 0.0, c))

    values = np.array([g(b) for b in breaks])
    if values[0] <= 0:
        lam = breaks[0]
    else:
        idx = int(np.argmax(values <= 0))
        lo, hi = breaks[idx - 1], breaks[idx]
        g_lo, g_hi = values[idx - 1], values[idx]
        lam = lo if g_hi == g_lo else lo - g_lo * (hi - lo) / (g_hi - g_lo)
    return np.clip(v - lam * y, 0.0, c)


def qp_dual_oracle(gram: np.ndarray, y: np.ndarray, c: float,
                   max_iters: int = 1_000_000) -> tuple[np.ndarray, float]:
    """Brute-force solve of the dual by projected gradient ascent.

    Maximizes sum(a) - 0.5 a^T Q a over the box-and-hyperplane feasible set,
    stepping at 1/lambda_max(Q) and stopping when the iterate freezes.
    """
    q_matrix = (y[:, None] * y[None, :]) * gram
    step = 1.0 / max(float(np.linalg.eigvalsh(q_matrix).max()), 1e-12)
    alphas = np.zeros(len(y))
    for _ in range(max_iters):
        grad = 1.0 - q_matrix @ alphas
        new = project_dual(alphas + step * grad, y, c)
        done = np.abs(new - alphas).max() < 1e-14
        alphas = new
        if done:
            break
    objective = float(alphas.sum() - 0.5 * alphas @ q_matrix @ alphas)
    return alphas, objective


def random_trace(rng: np.random.Generator, max_packets: int = 50):
    """A sorted packet stream over a small endpoint pool so keys collide.

    Gap distribution mixes sub-second spacing with occasional jumps beyond
    the activity and flow timeouts so burst and flow splits are exercised.
    """
    from flowsieve.flow_meter import PacketRecord

    ips = [0x0A000001, 0x0A000002, 0x0A000003]  # 10.0.0.1-3
    ports = [80, 443, 5555, 9999]
    n = int(rng.integers(1, max_packets + 1))
    ts = 0
    packets = []
    for _ in range(n):
        jump = rng.random()
        if jump < 0.70:
            ts += int(rng.integers(0, 2_000_000))
        elif jump < 0.90:
            ts += int(rng.integers(5_000_001, 20_000_000))
        else:
            ts += int(rng.integers(120_000_001, 250_000_000))
        src_ip, dst_ip = rng.choice(ips, size=2, replace=True)
        src_port, dst_port = rng.choice(ports, size=2, replace=True)
        packets.append(PacketRecord(
            timestamp_us=ts,
            src_ip=int(src_ip), src_port=int(src_port),
            dst_ip=int(dst_ip), dst_port=int(dst_port),
            protocol=6 if rng.random() < 0.8 else 17,
            payload_bytes=int(rng.integers(40, 1500)),
        ))
    return packets


def parse_packet_record(row: str, line_number: int = 0):
    """Parse one comma-separated packet record with the reader's own field
    checks, flowsieve.flow_meter._record.

    Expected fields: timestamp_us, src_ip, src_port, dst_ip, dst_port,
    protocol, bytes. Raises DataError naming the offending line and field,
    as read_packet_file does but for the file name.
    """
    from flowsieve.errors import DataError
    from flowsieve.flow_meter import Addresses, _record

    try:
        return _record(row.split(","), Addresses())
    except ValueError as exc:
        raise DataError(f"line {line_number}: {exc}") from None


def oracle_packet_record(row: str, line_number: int = 0) -> tuple:
    """Parse one packet record with the standard library's IPv4 parser.

    Mirrors the documented field checks, in field order, with the same
    DataError messages as parse_packet_record.
    """
    import ipaddress

    from flowsieve.errors import DataError

    def as_int(text, name):
        try:
            return int(text)
        except ValueError:
            raise DataError(
                f"line {line_number}: {name}: not an integer: {text!r}") from None

    def as_ip(text, name):
        try:
            return int(ipaddress.IPv4Address(text))
        except (ipaddress.AddressValueError, ValueError):
            raise DataError(f"line {line_number}: {name}: "
                             f"malformed IPv4 address {text!r}") from None

    fields = [f.strip() for f in row.strip().split(",")]
    if len(fields) != 7:
        raise DataError(f"line {line_number}: expected 7 fields, got {len(fields)}")
    ts = as_int(fields[0], "timestamp_us")
    if ts < 0:
        raise DataError(f"line {line_number}: timestamp_us: negative value {ts}")
    if ts >= 2 ** 53:
        raise DataError(f"line {line_number}: timestamp_us: too large: {ts} "
                         "(must be below 2**53)")
    src_ip = as_ip(fields[1], "src_ip")
    src_port = as_int(fields[2], "src_port")
    dst_ip = as_ip(fields[3], "dst_ip")
    dst_port = as_int(fields[4], "dst_port")
    for name, port in (("src_port", src_port), ("dst_port", dst_port)):
        if not 0 <= port <= 65535:
            raise DataError(f"line {line_number}: {name}: port out of range: {port}")
    protocol = as_int(fields[5], "protocol")
    if protocol not in (6, 17):
        raise DataError(f"line {line_number}: protocol: unsupported protocol {protocol}")
    payload = as_int(fields[6], "bytes")
    if payload < 0:
        raise DataError(f"line {line_number}: bytes: negative value {payload}")
    if payload >= 2 ** 32:
        raise DataError(f"line {line_number}: bytes: too large: {payload} "
                         "(must be below 2**32)")
    return (ts, src_ip, src_port, dst_ip, dst_port, protocol, payload)


def oracle_load_flow_csv(path, bad_value_policy: str = "error"):
    """Load a flow CSV checking every cell on its own, in column order.

    The per-cell reader flowsieve.dataset.load_flow_csv replaced; it takes
    the same cells, gives the same values and raises the same DataError texts.
    A field past csv's size limit is an error in the header; data rows are
    read with no limit, as the loader's C passes read them.
    """
    import csv
    import math
    import sys
    from contextlib import ExitStack

    from flowsieve.dataset import LABEL_TO_ID, UNB_CIC_ALIASES, Dataset
    from flowsieve.errors import DataError
    from flowsieve.flow_meter import FEATURE_COLUMNS, parse_ipv4

    if bad_value_policy not in ("error", "drop"):
        raise ValueError(f"unknown bad_value_policy {bad_value_policy!r}")
    def csv_rows(reader):
        try:
            yield from reader
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None

    with open(path, "r", encoding="utf-8", newline="") as handle, ExitStack() as stack:
        reader = csv_rows(csv.reader(handle))
        try:
            header = [UNB_CIC_ALIASES.get(c.strip(), c.strip())
                      for c in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        last = header[-1] if header else ""
        if last.lower() != "label":
            raise DataError(f"{path}: last column must be 'label', got {last!r}")
        feature_names = tuple(header[:-1])
        unknown = [n for n in feature_names if n not in FEATURE_COLUMNS]
        if unknown:
            raise DataError(f"{path}: unknown feature columns: {', '.join(unknown)}")
        if len(set(feature_names)) != len(feature_names):
            raise DataError(f"{path}: duplicate feature columns")
        width = len(header)
        rows, labels = [], []
        dropped = 0
        # The data rows are read with no field limit, csv's limit restored after.
        stack.callback(csv.field_size_limit, csv.field_size_limit(sys.maxsize))
        for row_number, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != width:
                raise DataError(
                    f"{path}: expected {width} columns at row {row_number}, "
                    f"got {len(cells)}")
            values = []
            bad = False
            for col, (name, cell) in enumerate(zip(feature_names, cells), start=1):
                cell = cell.strip()
                try:
                    value = float(cell)
                except ValueError:
                    address = (parse_ipv4(cell) if name in ("src_ip", "dst_ip")
                               else None)
                    if address is None:
                        raise DataError(
                            f"{path}: row {row_number} column {col} ({name}): "
                            f"non-numeric cell {cell!r}") from None
                    value = float(address)
                if not math.isfinite(value):
                    if bad_value_policy == "drop":
                        bad = True
                        break
                    raise DataError(
                        f"{path}: row {row_number} column {col} ({name}): "
                        f"non-finite value {cell!r}")
                values.append(value)
            if bad:
                dropped += 1
                continue
            raw_label = cells[-1].strip()
            label_id = LABEL_TO_ID.get(raw_label.lower())
            if label_id is None:
                raise DataError(
                    f"{path}: row {row_number}: unknown label {raw_label!r}")
            rows.append(values)
            labels.append(label_id)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(feature_names, np.array(rows, dtype=np.float64),
                   np.array(labels, dtype=np.int64), dropped=dropped)


def format_cell(value: float) -> str:
    """One flow-CSV cell, the reference for flowsieve.dataset.write_csv.

    Integral values print exactly; others with 6 significant digits. A
    value whose 6-digit rounding is integral prints as that integer, so
    rewriting a CSV produced by this formatter is byte-stable.
    """
    if value == int(value) and abs(value) < 2 ** 53:
        return str(int(value))
    rounded = float(f"{value:.6g}")
    if rounded == int(rounded) and abs(rounded) < 2 ** 53:
        return str(int(rounded))
    return f"{value:.6g}"


def oracle_write_csv(ds, path) -> None:
    """Write a Dataset one row and one format_cell call at a time."""
    from flowsieve.dataset import CLASS_NAMES

    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(ds.schema + ("label",)) + "\n")
        for row, label in zip(ds.X, ds.y):
            cells = [format_cell(float(v)) for v in row]
            cells.append(CLASS_NAMES[label])
            handle.write(",".join(cells) + "\n")


def kernel_eval(kernel, x, z) -> float:
    """One kernel value from its definition; the reference for
    flowsieve.svm.kernel_matrix."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"width mismatch: {x.shape} vs {z.shape}")
    if kernel.kind == "linear":
        return float(x @ z)
    diff = x - z
    return float(np.exp(-kernel.gamma * (diff @ diff)))


def decision_value(model, x) -> float:
    """flowsieve.svm.decision_values for one example."""
    from flowsieve.svm import decision_values

    return float(decision_values(model, np.asarray(x)[None, :])[0])


def svm_predict(model, x) -> int:
    """flowsieve.svm.predict_batch for one example."""
    from flowsieve.svm import predict_batch

    return int(predict_batch(model, np.asarray(x)[None, :])[0])


def svm_argmax_rule(model, X) -> np.ndarray:
    """The two-model rule that flowsieve.svm.predict_batch replaces: per row,
    the argmax over a NonTor model, the exact negation -f of the decision
    function, and the Tor model f. Ties and NaN go to NonTor (class 0)."""
    from flowsieve.svm import decision_values

    f = decision_values(model, X)
    return np.argmax(np.column_stack([-f, f]), axis=1)


def dual_objective(model) -> float:
    """sum(alpha) - 0.5 * coeff^T K coeff over the support vectors."""
    from flowsieve.svm import kernel_matrix

    gram = kernel_matrix(model.kernel, model.support_vectors, model.support_vectors)
    alphas = np.abs(model.coefficients)
    return float(alphas.sum() - 0.5 * model.coefficients @ gram @ model.coefficients)


def primal_objective(model, X, y_pm) -> float:
    """0.5||w||^2 + C * sum of hinge losses on (X, y_pm) with y in {+1,-1}."""
    from flowsieve.svm import decision_values, kernel_matrix

    gram = kernel_matrix(model.kernel, model.support_vectors, model.support_vectors)
    w_norm_sq = float(model.coefficients @ gram @ model.coefficients)
    margins = y_pm * (decision_values(model, X))
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * w_norm_sq + model.C * float(hinge)


def reference_kernel_matrix(kernel, X: np.ndarray, Z: np.ndarray,
                            z_norms: np.ndarray | None = None) -> np.ndarray:
    """K(x, z) for every row pair. The rbf kernel expands ||x - z||^2 over
    the squared row norms; a caller that takes many rows against one Z can
    pass Z's as `z_norms`, which are otherwise computed here."""
    X = np.asarray(X, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if kernel.kind == "linear":
        return X @ Z.T
    if z_norms is None:
        z_norms = (Z ** 2).sum(axis=1)
    sq = (X ** 2).sum(axis=1)[:, None] + z_norms[None, :] - 2.0 * X @ Z.T
    return np.exp(-kernel.gamma * np.maximum(sq, 0.0))


def reference_decision_values(model, X) -> np.ndarray:
    """The one-matrix rule flowsieve.svm.decision_values blocks: every test
    row against every support vector in one kernel matrix."""
    gram = reference_kernel_matrix(model.kernel, np.atleast_2d(X),
                                   model.support_vectors)
    return gram @ model.coefficients + model.bias


def reference_smo_train(X, y_pm, kernel, cfg):
    """The SMO solver flowsieve.svm.smo_train must match bit for bit: it
    rebuilds both working-set masks over all n rows at every update and takes
    each kernel row from reference_kernel_matrix, norms and all."""
    from flowsieve.svm import SvmModel

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y_pm, dtype=np.float64)
    n, c = len(y), cfg.C
    budget = cfg.max_iterations if cfg.max_iterations is not None else 100 * n
    diag = np.ones(n) if kernel.kind == "rbf" else np.einsum("ij,ij->i", X, X)
    alphas = np.zeros(n)
    v = y.copy()
    pair = ()
    updates = 0
    while True:
        up = np.where(y > 0, alphas < c, alphas > 0)
        low = np.where(y > 0, alphas > 0, alphas < c)
        i = int(np.argmax(np.where(up, v, -np.inf)))
        v_max, v_min = v[i], float(np.min(v[low]))
        converged = v_max - v_min <= cfg.tolerance
        if converged or updates >= budget:
            break
        k_i = reference_kernel_matrix(kernel, X[i:i + 1], X)[0]
        gain = np.where(low & (v < v_max), (v_max - v) ** 2, -np.inf)
        j = int(np.argmax(gain / np.maximum(k_i[i] + diag - 2.0 * k_i, 1e-12)))
        k_j = reference_kernel_matrix(kernel, X[j:j + 1], X)[0]
        end_i = c if y[i] > 0 else 0.0
        end_j = 0.0 if y[j] > 0 else c
        room_i, room_j = abs(end_i - alphas[i]), abs(end_j - alphas[j])
        delta = min((v_max - v[j]) / max(k_i[i] + k_j[j] - 2.0 * k_i[j], 1e-12),
                    room_i, room_j)
        alphas[i] = end_i if delta == room_i else alphas[i] + y[i] * delta
        alphas[j] = end_j if delta == room_j else alphas[j] - y[j] * delta
        v -= delta * (k_i - k_j)
        pair = (i, j)
        updates += 1

    free = [t for t in pair if 0.0 < alphas[t] < c]
    bias = float(v[free[0]] if free else 0.5 * (v_max + v_min))
    support = np.flatnonzero(alphas > 1e-12)
    return SvmModel(kernel=kernel, C=c, support_vectors=X[support].copy(),
                    coefficients=alphas[support] * y[support], bias=bias,
                    converged=converged)
