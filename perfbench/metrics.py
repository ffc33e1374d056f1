"""Metric definitions and how each is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the lists BENCHMARK.json publishes; the
benchmark's tests check the two agree. Every per-layer metric carries the
end-to-end metric and workload it is expected to move.

One *op* is the unit each workload repeats: a handshake for ``connect``, a
message fanned out to every subscriber for ``pubsub``, a device session
(connect, one reading, disconnect, or a refused connect) for ``churn``.
"""

from __future__ import annotations

import math
import statistics

from loadgen import Phase
from spans import TAG_REPEAT, TAG_WEB

# name, unit, better, bound (share of the parent's median it may worsen by).
# On a 2-vCPU VM, ten 20 s runs of one commit spread by 6-25% (quartile
# distance over median) in p50, p90 and rate, so those bounds sit at the
# 0.25 maximum; peak RSS repeats within 0.5%. p99 spread by 18-47% with host
# noise, so it is reported beside the metrics (``op_p99_ms`` with its sample
# count) but not gated.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("broker_peak_rss_mib", "MiB", "lower", 0.1),
)

# name, unit, better, the end-to-end metric @ workload it should move
PER_LAYER = (
    ("broker_service.cpu_us_per_op", "us", "lower", "ops_per_s@connect, ops_per_s@pubsub"),
    ("broker_service.busy_ratio", "ratio", "lower", "ops_per_s@connect, ops_per_s@pubsub"),
    ("broker_service.events_per_op", "count", "lower", "op_p50_ms@pubsub (publish latency)"),
    ("broker_service.log_bytes_per_op", "B", "lower", "op_p50_ms@pubsub (publish latency)"),
    ("loadgen.cpu_us_per_op", "us", "lower", "shows when the client library limits ops_per_s"),
    ("loadgen.busy_ratio", "ratio", "lower", "shows when the client library limits ops_per_s"),
    ("protocol.client.begin_connect_us", "us", "lower", "op_p50_ms@connect, op_p50_ms@churn; none @pubsub"),
    ("protocol.broker.handle_connect_us", "us", "lower", "op_p50_ms@connect, op_p50_ms@churn; none @pubsub"),
    ("protocol.client.handle_challenge_us", "us", "lower", "op_p50_ms@connect, op_p50_ms@churn; none @pubsub"),
    ("protocol.broker.handle_auth_response_us", "us", "lower", "op_p50_ms@connect, op_p50_ms@churn; none @pubsub"),
    ("protocol.client.handle_connack_us", "us", "lower", "op_p50_ms@connect, op_p50_ms@churn; none @pubsub"),
    ("protocol.client.publish_us", "us", "lower", "op_p50_ms@pubsub (publish and deliver latency)"),
    ("protocol.broker.handle_publish_us", "us", "lower", "op_p50_ms@pubsub (publish and deliver latency)"),
    ("protocol.client.handle_publish_us", "us", "lower", "op_p50_ms@pubsub (deliver latency)"),
    ("crypto.x25519.per_op", "count", "lower", "op_p50_ms@connect"),
    ("crypto.ecdh.us_per_op", "us", "lower", "op_p50_ms@connect"),
    ("crypto.convert_public_key.per_op", "count", "lower", "op_p50_ms@connect"),
    ("crypto.convert_public_key.us_per_op", "us", "lower", "op_p50_ms@connect"),
    ("crypto.keygen.us_per_op", "us", "lower", "op_p50_ms@connect"),
    ("crypto.ed25519_verify.us_per_op", "us", "lower", "op_p50_ms@connect"),
    ("crypto.aead.per_op", "count", "lower", "op_p50_ms@pubsub (deliver latency)"),
    ("crypto.aead.us_per_call", "us", "lower", "op_p50_ms@pubsub (deliver latency)"),
    ("did.resolve_web.per_op", "count", "lower", "op_p50_ms@connect"),
    ("did.resolve_key.per_op", "count", "lower", "op_p50_ms@connect"),
    ("did.resolve.us_per_op", "us", "lower", "op_p50_ms@connect"),
    ("did.resolve.repeat_ratio", "ratio", "higher", "op_p50_ms@connect; high @connect, low @churn"),
    ("credential.verify_presentation.us_per_op", "us", "lower", "op_p50_ms@connect, op_p50_ms@churn"),
    ("credential.present.us_per_op", "us", "lower", "op_p50_ms@connect, op_p50_ms@churn"),
    ("credential.trust_load.per_op", "count", "lower", "op_p50_ms@connect, op_p50_ms@churn"),
    ("credential.trust_load.us_per_op", "us", "lower", "op_p50_ms@connect, op_p50_ms@churn"),
    ("credential.trust_load.changed_ratio", "ratio", "lower", "op_p50_ms@churn; 0 @connect, above 0 @churn"),
    ("wire.encode.us_per_op", "us", "lower", "op_p50_ms@pubsub (deliver latency)"),
    ("wire.decode.us_per_op", "us", "lower", "op_p50_ms@pubsub (deliver latency)"),
    ("wire.bytes_per_op", "B", "lower", "op_p50_ms@pubsub (deliver latency)"),
    ("socket.wait_us_per_op", "us", "lower", "op_p50_ms on every workload"),
    ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself"),
)

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
# Units of the figures reported beside the metrics, by name suffix; the
# first match wins, so "_per_s" precedes "_s".
_SUFFIX_UNITS = (("_ms", "ms"), ("_per_s", "1/s"), ("_samples", "count"), ("_ratio", "ratio"), ("_mib", "MiB"), ("_s", "s"))


def valued(values: dict[str, float]) -> dict[str, dict]:
    def unit(name: str) -> str:
        return _UNITS.get(name) or next(u for suffix, u in _SUFFIX_UNITS if name.endswith(suffix))

    return {name: {"value": value, "unit": unit(name)} for name, value in values.items()}


def percentile(samples: list[int], share: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in milliseconds."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)] / 1e6


def _median_ms(samples: list[int]) -> float:
    return statistics.median(samples) / 1e6


def end_to_end(phase: Phase, setups: list[float], peak_rss_mib: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": _median_ms(phase.op_ns),
        "op_p90_ms": percentile(phase.op_ns, 0.90),
        "ops_per_s": phase.ops / phase.wall_s,
        "broker_peak_rss_mib": peak_rss_mib,
    }


def named_report(workload: str, phase: Phase, failed: int) -> dict[str, float]:
    """The per-operation figures each workload reports beside its op metrics."""
    rate = {"connect": "connects_per_s", "pubsub": "delivered_per_s", "churn": "sessions_per_s"}[workload]
    delivered = len(phase.deliver_ns) if workload == "pubsub" else phase.ops
    out = {rate: delivered / phase.wall_s}
    for label, samples in (
        ("op", phase.op_ns), ("connect", phase.connect_ns), ("publish", phase.publish_ns), ("deliver", phase.deliver_ns)
    ):
        if samples:
            out[f"{label}_p50_ms"] = _median_ms(samples)
            out[f"{label}_p99_ms"] = percentile(samples, 0.99)
            out[f"{label}_samples"] = len(samples)
    out["failed_ratio"] = failed / max(1, phase.attempted)
    return out


def per_layer(untraced: Phase, traced: Phase, client: dict[str, dict], broker: dict[str, dict]) -> dict[str, float]:
    """Per-op layer figures: /proc and CPU clocks from the untraced window,
    span sums from the traced window (client and broker spans merged).

    ``protocol.*`` figures are self time; other ``us`` figures are the whole
    time of the wrapped call, children included.
    """
    ops = max(1, traced.ops)
    merged: dict[str, dict] = {}
    for source in (client, broker):
        for name, entry in source.items():
            into = merged.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "top_ns": 0, "tags": {}, "tag_sum": 0})
            for key in ("calls", "total_ns", "self_ns", "top_ns", "tag_sum"):
                into[key] += entry[key]
            for tag, count in entry["tags"].items():
                into["tags"][tag] = into["tags"].get(tag, 0) + count

    def get(name: str, key: str = "total_ns") -> float:
        return merged.get(name, {}).get(key, 0)

    def us_per_op(name: str, key: str = "total_ns") -> float:
        return get(name, key) / ops / 1e3

    def tagged(name: str, bit: int) -> int:
        return sum(count for tag, count in merged.get(name, {}).get("tags", {}).items() if tag & bit)

    resolves = max(1, get("did.resolve", "calls"))
    loads = max(1, get("credential.trust_load", "calls"))
    aead_calls = get("crypto.aead", "calls")
    top_ns = sum(entry["top_ns"] for name, entry in merged.items() if name != "protocol.client.disconnect")
    u_ops = max(1, untraced.ops)
    out = {
        "broker_service.cpu_us_per_op": untraced.broker_cpu_s / u_ops * 1e6,
        "broker_service.busy_ratio": untraced.broker_cpu_s / untraced.wall_s,
        "broker_service.events_per_op": untraced.events / u_ops,
        "broker_service.log_bytes_per_op": untraced.log_bytes / u_ops,
        "loadgen.cpu_us_per_op": untraced.loadgen_cpu_s / u_ops * 1e6,
        "loadgen.busy_ratio": untraced.loadgen_cpu_s / untraced.wall_s,
    }
    for side, step in (
        ("client", "begin_connect"), ("broker", "handle_connect"), ("client", "handle_challenge"),
        ("broker", "handle_auth_response"), ("client", "handle_connack"), ("client", "publish"),
        ("broker", "handle_publish"), ("client", "handle_publish"),
    ):
        out[f"protocol.{side}.{step}_us"] = us_per_op(f"protocol.{side}.{step}", "self_ns")
    out.update({
        "crypto.x25519.per_op": get("crypto.x25519", "calls") / ops,
        "crypto.ecdh.us_per_op": us_per_op("crypto.ecdh"),
        "crypto.convert_public_key.per_op": get("crypto.convert_public_key", "calls") / ops,
        "crypto.convert_public_key.us_per_op": us_per_op("crypto.convert_public_key"),
        "crypto.keygen.us_per_op": us_per_op("crypto.keygen"),
        "crypto.ed25519_verify.us_per_op": us_per_op("crypto.ed25519_verify"),
        "crypto.aead.per_op": aead_calls / ops,
        "crypto.aead.us_per_call": get("crypto.aead") / max(1, aead_calls) / 1e3,
        "did.resolve_web.per_op": tagged("did.resolve", TAG_WEB) / ops,
        "did.resolve_key.per_op": (get("did.resolve", "calls") - tagged("did.resolve", TAG_WEB)) / ops,
        "did.resolve.us_per_op": us_per_op("did.resolve"),
        "did.resolve.repeat_ratio": tagged("did.resolve", TAG_REPEAT) / resolves,
        "credential.verify_presentation.us_per_op": us_per_op("credential.verify_presentation"),
        "credential.present.us_per_op": us_per_op("credential.present"),
        "credential.trust_load.per_op": get("credential.trust_load", "calls") / ops,
        "credential.trust_load.us_per_op": us_per_op("credential.trust_load"),
        "credential.trust_load.changed_ratio": get("credential.trust_load", "tag_sum") / loads,
        "wire.encode.us_per_op": us_per_op("wire.encode"),
        "wire.decode.us_per_op": us_per_op("wire.decode"),
        "wire.bytes_per_op": get("wire.encode", "tag_sum") / ops,
        "socket.wait_us_per_op": (sum(traced.op_ns) - top_ns) / ops / 1e3,
        "trace.overhead_ratio": _median_ms(traced.op_ns) / _median_ms(untraced.op_ns),
    })
    return out


# Calls per op that the code makes today, counted in the traced window. A
# handshake: 3 X25519 agreements per side, 8 AEAD calls, 3 Ed25519->X25519
# conversions (client ephemeral; broker resolving ephemeral and static
# did:key), 1 credential signature check and one load of each trust file.
# A publish to K subscribers: 2 AEAD calls to seal, 2 to open, and 2 + 2
# per subscriber for re-encryption and the subscriber's decrypt.
HANDSHAKE = {"crypto.x25519": 6, "crypto.aead": 8, "crypto.convert_public_key": 3,
             "crypto.ed25519_verify": 1, "credential.trust_load": 2}
REFUSED_AT_H = dict(HANDSHAKE, **{"crypto.aead": 6})


def expected_counts(workload: str, phase: Phase, subscribers: int) -> dict[str, int]:
    """Total calls each counted layer should make in the traced window."""
    publish_aead = 4 + 4 * subscribers
    if workload == "connect":
        return {name: n * phase.ops for name, n in HANDSHAKE.items()}
    if workload == "pubsub":
        return dict({name: 0 for name in HANDSHAKE}, **{"crypto.aead": publish_aead * phase.ops})
    accepted = phase.ops - phase.refused
    counts = {name: HANDSHAKE[name] * accepted + REFUSED_AT_H[name] * phase.refused for name in HANDSHAKE}
    counts["crypto.aead"] += publish_aead * accepted
    return counts


def count_invariants(expected: dict[str, int], client: dict[str, dict], broker: dict[str, dict]) -> dict[str, dict]:
    """Expected against measured call counts; ``held`` is exact equality."""
    out = {}
    for name, want in expected.items():
        got = client.get(name, {}).get("calls", 0) + broker.get(name, {}).get("calls", 0)
        out[name] = {"expected": want, "measured": got, "held": got == want}
    return out
